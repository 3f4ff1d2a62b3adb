"""Wigner synthesis contracts.

The heavyweight oracle here is the displaced-parity form
W(q,p) = (1/pi) tr[D†(α) ρ D(α) Π], α = (q+ip)/√2, built from matrix
exponentials in a padded Fock space: a route with no Laguerre recurrence,
no log prefactors and no diagonal bookkeeping shared with production.
Scipy's own Laguerre evaluation covers the diagonal branch separately.
"""

import numpy as np
import pytest
from expm_unitaries import annihilation_matrix
from scipy.linalg import expm
from scipy.special import eval_laguerre

from ngm import wigner
from ngm.channels import ThermalLossSpec, thermal_loss_phase_space
from ngm.errors import ConsistencyError, NormalizationError, NumericalError
from ngm.fisher import _smoothing_reports, fisher_from_field
from ngm.fock import (
    FockDensityMatrix,
    FockVector,
    cat,
    coherent,
    random_qudit,
    state_moments,
)
from ngm.measure import gaussian_associate_entropy
from ngm.numerics import PhaseSpaceGrid, integrate
from ngm.wigner import (
    GaussianMoments,
    WignerField,
    _check_gradient,
    _synthesize,
    default_grid,
    moments,
    negative_volume,
    wigner_from_fock,
    wigner_gradient,
)


def fock_density(n):
    amp = np.zeros(n + 1)
    amp[n] = 1.0
    return FockVector(amp).to_density()


def parity_oracle(rho, qs, ps, pad=30):
    """Displaced-parity Wigner values at the given points."""
    dim = rho.dim + pad
    big = np.zeros((dim, dim), dtype=complex)
    big[: rho.dim, : rho.dim] = rho.entries
    a = annihilation_matrix(dim)
    ad = a.conj().T
    par = np.diag((-1.0) ** np.arange(dim))
    out = np.zeros((len(qs), len(ps)))
    for i, q in enumerate(qs):
        for j, p in enumerate(ps):
            alpha = (q + 1j * p) / np.sqrt(2.0)
            d = expm(alpha * ad - np.conj(alpha) * a)
            out[i, j] = np.trace(d.conj().T @ big @ d @ par).real / np.pi
    return out


GRID = PhaseSpaceGrid(-6, 6, -6, 6, 129, 129)


# ---------------------------------------------------------------- synthesis


def test_vacuum_field_is_gaussian():
    f = wigner_from_fock(fock_density(0), GRID)
    Q, P = GRID.meshes()
    want = np.exp(-(Q**2) - P**2) / np.pi
    assert np.max(np.abs(f.values - want)) < 1e-14
    i0 = GRID.n_q // 2
    assert f.values[i0, i0] == pytest.approx(1.0 / np.pi, abs=1e-12)


def test_fock_one_center_value():
    f = wigner_from_fock(fock_density(1), GRID)
    i0 = GRID.n_q // 2
    assert f.values[i0, i0] == pytest.approx(-1.0 / np.pi, abs=1e-10)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_fock_diagonal_matches_scipy_laguerre(n):
    f = wigner_from_fock(fock_density(n), GRID)
    Q, P = GRID.meshes()
    u = 2.0 * (Q**2 + P**2)
    want = (-1.0) ** n * eval_laguerre(n, u) * np.exp(-0.5 * u) / np.pi
    assert np.max(np.abs(f.values - want)) < 1e-10


def test_coherent_is_translated_vacuum():
    alpha = 1.0 + 0.5j
    f = wigner_from_fock(coherent(alpha, 40).to_density(), GRID)
    Q, P = GRID.meshes()
    want = np.exp(-((Q - np.sqrt(2)) ** 2) - (P - np.sqrt(2) * 0.5) ** 2) / np.pi
    assert np.max(np.abs(f.values - want)) < 1e-8


def test_against_displaced_parity_oracle():
    pts = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    grid = PhaseSpaceGrid(-2, 2, -2, 2, 5, 5, min_points=2)
    states = [
        fock_density(1),
        cat(1.5, "even", 30).to_density(),
        random_qudit(3, [0, 1, 2], seed=21),
    ]
    for rho in states:
        got = wigner_from_fock(rho, grid).values
        # pad 90: the oracle's own parity-trace truncation must sit well
        # below the comparison tolerance
        want = parity_oracle(rho, pts, pts, pad=90)
        assert np.max(np.abs(got - want)) < 1e-10


def test_hermitian_realness_residue():
    rng = np.random.default_rng(0)
    for _ in range(50):
        rho = random_qudit(4, [0, 1, 2, 3], seed=int(rng.integers(1 << 30)))
        (W,) = _synthesize(rho.entries, GRID, with_grad=False)
        assert W.dtype == np.float64
        # the imaginary field, the real field of (c - c^+)/2i
        a = (rho.entries - rho.entries.conj().T) / 2j
        (imag,) = wigner._fields(wigner._coefficients(a), GRID.q, GRID.p, False)
        assert np.max(np.abs(imag)) < 1e-12


def test_non_hermitian_input_raises():
    bad = np.array([[0.6, 0.3], [0.0, 0.4]], dtype=complex)
    with pytest.raises(ConsistencyError):
        wigner_from_fock(FockDensityMatrix(bad), GRID)


def test_rounding_level_anti_hermitian_part_is_dropped():
    # a Kraus sum leaves ~1e-17 of anti-Hermitian part; the trace-norm bound
    # proves its field negligible, so W is the Hermitian part's, unchanged
    rho = random_qudit(4, [0, 1, 2, 3], seed=5).entries
    herm = 0.5 * (rho + rho.conj().T)
    x = np.random.default_rng(5).standard_normal(rho.shape)
    anti = 1e-17j * (x + x.T)
    got = wigner_from_fock(FockDensityMatrix(herm + anti), GRID).values
    want = wigner_from_fock(FockDensityMatrix(herm), GRID).values
    assert np.max(np.abs(got - want)) < 1e-16


def test_mid_range_anti_hermitian_part_is_synthesized_and_accepted():
    # the entrywise bound, 1.35e-9, does not prove the imaginary field
    # negligible, so it is synthesized: its residue, 4.8e-10, passes, and W
    # is the Hermitian part's; the imaginary dW/dq reaches 1.58e-9
    rho = random_qudit(4, [0, 1, 2, 3], seed=5).entries
    herm = 0.5 * (rho + rho.conj().T)
    x = np.random.default_rng(5).standard_normal(rho.shape)
    mid = FockDensityMatrix(herm + 3e-10j * (x + x.T))
    calls = []
    coefficients = wigner._coefficients

    def spy(c):
        calls.append(c)
        return coefficients(c)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wigner, "_coefficients", spy)
        got = wigner_from_fock(mid, GRID).values
    assert len(calls) == 2
    want = wigner_from_fock(FockDensityMatrix(herm), GRID).values
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    with pytest.raises(ConsistencyError, match="residue 1.581e-09"):
        wigner_gradient(mid, GRID)


def test_residue_errors_name_their_caller():
    rho = cat(1.5).to_density()
    x = np.random.default_rng(0).standard_normal((rho.dim, rho.dim))
    bad = FockDensityMatrix(rho.entries + 1e-3 * (x - x.T))
    grid = default_grid(rho, points=65)
    field = wigner_gradient(rho, grid)
    callers = [
        ("Wigner field", lambda: wigner_from_fock(bad, grid)),
        ("Wigner field", lambda: wigner_gradient(bad, grid)),
        ("phase-space channel output",
         lambda: thermal_loss_phase_space(bad, ThermalLossSpec(0.5, 0.0), grid)),
        ("smoothed Wigner field",
         lambda: _smoothing_reports(bad, field, fisher_from_field(field), np.eye(2))),
    ]
    for label, call in callers:
        with pytest.raises(ConsistencyError, match=f"^{label} has imaginary residue"):
            call()


def test_field_values_must_be_real():
    with pytest.raises(ValueError, match="real"):
        WignerField(GRID, np.zeros(GRID.shape, dtype=complex))


@pytest.mark.parametrize("eps, accepted", [(1e-10, True), (2e-10, False),
                                            (2.5e-10, False), (3e-10, False)])
def test_gradient_residue_skip_bounds_the_imaginary_gradients(eps, accepted):
    # the trace norm bounds the imaginary W, not its gradients: at 2e-10 the
    # entrywise bound on W is below 1e-9, but the imaginary |dW| reaches
    # 1.05e-9, so the skip must take the sqrt(2 dim) commutator factor
    rho = random_qudit(4, [0, 1, 2, 3], seed=5).entries
    herm = 0.5 * (rho + rho.conj().T)
    x = np.random.default_rng(5).standard_normal(rho.shape)
    state = FockDensityMatrix(herm + eps * 1j * (x + x.T))
    if accepted:
        wigner_gradient(state, GRID)
    else:
        with pytest.raises(ConsistencyError, match="imaginary residue"):
            wigner_gradient(state, GRID)


def test_non_hermitian_input_raises_at_1e_6():
    rho = random_qudit(4, [0, 1, 2, 3], seed=5).entries
    bad = rho.copy()
    bad[0, 1] += 1e-6
    with pytest.raises(ConsistencyError):
        wigner_from_fock(FockDensityMatrix(bad), GRID)


def test_synthesis_rejects_non_finite_input():
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NumericalError):
        _synthesize(bad, GRID, with_grad=False)


def test_guards_reject_nan():
    nan_field = WignerField(GRID, np.full(GRID.shape, np.nan))
    with pytest.raises(NormalizationError):
        moments(nan_field)
    with pytest.raises(NormalizationError):
        negative_volume(nan_field)
    # an anti-Hermitian part past the float range: its entrywise bound and
    # its imaginary field are NaN, its Hermitian part's field is finite
    overflow = np.array([[0.5, 1e308 + 1e308j], [-1e308 + 1e308j, 0.5]])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="synthesized Wigner field"):
        _synthesize(overflow, GRID, with_grad=False)
    rho = fock_density(1)
    f = wigner_gradient(rho, GRID)
    f.grad_q = np.full(GRID.shape, np.nan)
    with pytest.raises(ConsistencyError):
        _check_gradient(rho, f)


def test_wigner_bound_and_mass():
    states = [
        fock_density(0),
        fock_density(3),
        cat(2.0, "even", 40).to_density(),
        random_qudit(4, [0, 1, 2, 3], seed=5),
    ]
    for rho in states:
        f = wigner_from_fock(rho, points=257)  # auto-sized default grid
        assert np.max(np.abs(f.values)) <= 1.0 / np.pi + 1e-9
        assert integrate(f.values, f.grid) == pytest.approx(1.0, abs=1e-6)


def test_auto_grid_covers_state():
    f = wigner_from_fock(coherent(2.0, 40).to_density(), points=129)
    assert f.grid.q_max >= 5 * np.sqrt(0.5 + 8.0) - 1e-9
    assert integrate(f.values, f.grid) == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------- gradients


def test_gradient_zero_at_origin_for_radial_states():
    for n in [0, 1]:
        f = wigner_gradient(fock_density(n), GRID)
        i0 = GRID.n_q // 2
        assert abs(f.grad_q[i0, i0]) < 1e-12
        assert abs(f.grad_p[i0, i0]) < 1e-12


def test_gradient_fd_check_passes_for_cat():
    f = wigner_gradient(cat(2.0, "even", 40).to_density(), GRID)
    assert f.has_gradient


def test_gradient_matches_dense_finite_differences():
    # independent coarse check against differences of the sampled field;
    # the second-order stencil error on a 513-point mesh is ~1.3e-3 here
    # (and shrinks by 4x per mesh halving, so the analytic field is exact)
    grid = PhaseSpaceGrid(-6, 6, -6, 6, 513, 513)
    f = wigner_gradient(fock_density(2), grid)
    num_q, num_p = np.gradient(f.values, f.grid.q, f.grid.p)
    scale = np.max(np.abs(f.grad_q))
    assert np.max(np.abs(num_q - f.grad_q)) / scale < 2e-3
    assert np.max(np.abs(num_p - f.grad_p)) / scale < 2e-3


def test_gradient_vacuum_closed_form():
    f = wigner_gradient(fock_density(0), GRID)
    Q, P = GRID.meshes()
    want_q = -2.0 * Q * np.exp(-(Q**2) - P**2) / np.pi
    assert np.max(np.abs(f.grad_q - want_q)) < 1e-13
    want_p = -2.0 * P * np.exp(-(Q**2) - P**2) / np.pi
    assert np.max(np.abs(f.grad_p - want_p)) < 1e-13


# ------------------------------------------------------------------ moments


def test_moments_vacuum():
    m = moments(wigner_from_fock(fock_density(0), GRID))
    assert np.allclose(m.d, 0.0, atol=1e-8)
    assert np.allclose(m.V, 0.5 * np.eye(2), atol=1e-8)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_moments_fock_variance_with_operator_oracle(n):
    rho = fock_density(n)
    grid = PhaseSpaceGrid.for_moments(*state_moments(rho), points=257)
    m = moments(wigner_from_fock(rho, grid))
    assert np.allclose(m.V, (n + 0.5) * np.eye(2), atol=1e-6)
    _, v_op = state_moments(rho)
    assert np.allclose(m.V, v_op, atol=1e-6)


def test_moments_even_cat_centered():
    m = moments(wigner_from_fock(cat(2.0, "even", 40).to_density(), GRID))
    assert np.allclose(m.d, 0.0, atol=1e-8)


def test_moments_rejects_unnormalized():
    f = wigner_from_fock(fock_density(0), GRID)
    with pytest.raises(NormalizationError):
        moments(WignerField(GRID, 1.01 * f.values))


def test_moments_uncertainty_guard():
    with pytest.raises(ValueError):
        GaussianMoments([0, 0], 0.1 * np.eye(2)).validate(physical=True)
    GaussianMoments([0, 0], 0.1 * np.eye(2)).validate()  # free Gaussian is fine


def test_moments_validate_rejects_nan():
    with pytest.raises(ValueError):
        GaussianMoments([np.nan, 0.0], 0.5 * np.eye(2)).validate(physical=True)
    with pytest.raises(ValueError):
        GaussianMoments([0.0, 0.0], np.full((2, 2), np.nan)).validate()


# ------------------------------------------------------- gaussian associate


def gaussian_wigner(m, grid):
    """Gaussian Wigner field with the given moments, sampled in closed form."""
    inv = np.linalg.inv(m.V)
    Q, P = grid.meshes()
    x = Q - m.d[0]
    y = P - m.d[1]
    quad = inv[0, 0] * x * x + 2.0 * inv[0, 1] * x * y + inv[1, 1] * y * y
    return WignerField(grid, np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(np.linalg.det(m.V))))


def test_gaussian_wigner_matches_vacuum_synthesis():
    m = GaussianMoments([0.0, 0.0], 0.5 * np.eye(2))
    f = gaussian_wigner(m, GRID)
    ref = wigner_from_fock(fock_density(0), GRID)
    assert np.max(np.abs(f.values - ref.values)) < 1e-10
    assert integrate(f.values, f.grid) == pytest.approx(1.0, abs=1e-8)


def test_gaussian_wigner_moment_round_trip():
    m = GaussianMoments([0.4, -0.7], [[0.8, 0.2], [0.2, 0.6]])
    grid = PhaseSpaceGrid(-8, 8, -8, 8, 257, 257)
    back = moments(gaussian_wigner(m, grid))
    assert np.allclose(back.d, m.d, atol=1e-6)
    assert np.allclose(back.V, m.V, atol=1e-6)


def test_gaussian_wigner_singular_covariance():
    # the associate of a singular covariance has no density and no entropy
    m = GaussianMoments([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        gaussian_associate_entropy(m)


# ---------------------------------------------------------- negative volume


def test_negative_volume_vacuum_zero():
    assert negative_volume(wigner_from_fock(fock_density(0), GRID)) < 1e-10


def test_negative_volume_fock_one_closed_form():
    # production resolution: the |W| kink at the zero circle converges ~h^2
    grid = PhaseSpaceGrid(-6, 6, -6, 6, 513, 513)
    got = negative_volume(wigner_from_fock(fock_density(1), grid))
    assert got == pytest.approx(2.0 * np.exp(-0.5) - 1.0, abs=1e-5)


def test_negative_volume_positive_mixture():
    rho = FockDensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    f = wigner_from_fock(rho, GRID)
    assert np.min(f.values) > -1e-12  # (q^2+p^2) e^{-q^2-p^2}/pi is non-negative
    assert negative_volume(f) < 1e-8


# a cat amplitude at which both gradients nearly vanish at a checked point: the
# central difference there is all rounding (5.6e-11 absolute), which the
# 1e-6 scale floor alone turned into a 5.6e-5 "relative" error
ROUNDING_CAT = 1.3164898774786777


def test_gradient_check_accepts_rounding_level_differences():
    field = wigner_gradient(cat(ROUNDING_CAT).to_density())
    assert field.has_gradient


@pytest.mark.parametrize("rel", [1e-4, -1e-4])
@pytest.mark.parametrize("axis", ["grad_q", "grad_p"])
@pytest.mark.parametrize("state", ["cat", "one-photon"])
def test_gradient_check_rejects_perturbed_gradient(state, axis, rel):
    rho = cat(1.5).to_density() if state == "cat" else fock_density(1)
    field = wigner_gradient(rho)
    setattr(field, axis, getattr(field, axis) * (1.0 + rel))
    with pytest.raises(ConsistencyError):
        _check_gradient(rho, field)

"""Wigner synthesis contracts.

The heavyweight oracle here is the displaced-parity form
W(q,p) = (1/pi) tr[D†(α) ρ D(α) Π], α = (q+ip)/√2, built from matrix
exponentials in a padded Fock space: a route with no Laguerre recurrence,
no log prefactors and no diagonal bookkeeping shared with production.
Scipy's own Laguerre evaluation covers the diagonal branch separately.
"""

import functools

import numpy as np
import pytest
from expm_unitaries import annihilation_matrix
from scipy.linalg import expm
from scipy.special import eval_laguerre

from ngm import wigner
from ngm.catalog import apply_qubit_state
from ngm.channels import ThermalLossSpec, thermal_loss_phase_space
from ngm.errors import ConsistencyError, NormalizationError, NumericalError
from ngm.fisher import _smoothing_reports, fisher_from_field
from ngm.fock import (
    FockDensityMatrix,
    FockVector,
    as_density,
    cat,
    coherent,
    displaced_squeezed,
    gkp_logical,
    random_qudit,
    state_moments,
)
from ngm.measure import gaussian_associate_entropy, measure_from_field
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
        W = _synthesize(rho.entries, GRID, with_grad=False).values
        assert W.dtype == np.float64
        # the imaginary field, the real field of (c - c^+)/2i
        a = (rho.entries - rho.entries.conj().T) / 2j
        (imag,), _ = wigner._fields(wigner._expand(a), GRID.q, GRID.p, False)
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
    # the smoothing pass reads the state from the field's expansion
    smoothed = wigner_gradient(rho, grid)
    smoothed._expansion = wigner._expand(bad.entries)
    callers = [
        ("Wigner field", lambda: wigner_from_fock(bad, grid)),
        ("Wigner field", lambda: wigner_gradient(bad, grid)),
        ("phase-space channel output",
         lambda: thermal_loss_phase_space(bad, ThermalLossSpec(0.5, 0.0), grid)),
        ("smoothed Wigner field",
         lambda: _smoothing_reports(smoothed, fisher_from_field(field), np.eye(2))),
    ]
    for label, call in callers:
        with pytest.raises(ConsistencyError, match=f"^{label} has imaginary residue"):
            call()


def near_hermitian(eps):
    """A d = 4 qudit's Hermitian part plus eps i (X + X^T)."""
    rho = random_qudit(4, [0, 1, 2, 3], seed=5).entries
    x = np.random.default_rng(5).standard_normal(rho.shape)
    return 0.5 * (rho + rho.conj().T) + eps * 1j * (x + x.T)


def random_hermitian(dim, seed):
    x = np.random.default_rng(seed).normal(size=(dim, dim, 2)) @ [1.0, 1j]
    return 0.5 * (x + x.conj().T)


#: states, Hermitian matrices, and near-Hermitian matrices either side of
#: the residue threshold: at 1e-17 the bound proves W[a] negligible, at
#: 1e-10 every field passes its check, at 3e-10 W passes and its gradients
#: do not, at 1e-6 nothing passes
SHARED_INPUTS = {
    "cat": lambda: cat(1.5).to_density().entries,
    "ds160": lambda: as_density(displaced_squeezed(2.0 * np.exp(0.7j), 1.0, 160)).entries,
    "ds60": lambda: as_density(displaced_squeezed(2.0 * np.exp(0.7j), 0.0, 60)).entries,
    "gkp": lambda: as_density(gkp_logical(0, 10 ** (-10 / 20), n_c=60)).entries,
    "qudit": lambda: random_qudit(5, seed=3).entries,
    "hermitian": lambda: random_hermitian(6, 4),
    "real": lambda: random_hermitian(6, 4).real,
    **{f"near-{eps:g}": functools.partial(near_hermitian, eps)
       for eps in (1e-17, 1e-10, 3e-10, 1e-6)},
}


def outcome(fn):
    """The arrays (as bytes) and parities of a field, or its error."""
    try:
        field = fn()
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc), str(exc)
    arrays = (field.values, field.grad_q, field.grad_p)
    return [None if a is None else a.tobytes() for a in arrays], field._parity


@pytest.mark.parametrize("name", list(SHARED_INPUTS))
def test_a_shared_expansion_gives_the_fields_of_separate_syntheses(name):
    c = SHARED_INPUTS[name]()
    grid = PhaseSpaceGrid(-8.0, 8.0, -8.0, 8.0, 129, 129)
    shared = wigner._expand(c)
    identity = ((1.0, 0.0), (1.0, 0.0))
    for with_grad in (False, True, False):
        got = outcome(lambda: wigner._synthesize_mapped(shared, grid, with_grad, identity,
                                                        "Wigner field"))
        assert got == outcome(lambda: _synthesize(c, grid, with_grad))
    bounds = np.empty((2, *grid.shape))
    for expansion, bound in zip((shared, wigner._expand(c)), bounds):
        wigner._fields(expansion, grid.q, grid.p, False, bound)
    assert np.array_equal(bounds[0].view(np.int64), bounds[1].view(np.int64))
    # the smoothing pass reuses the expansion where the turn is theta = 0
    turn = np.exp(-1j * 0.0 * np.arange(len(c)))
    turned = wigner._expand(turn[:, None] * c * turn.conj())
    assert np.array_equal(turned.D.view(np.int64), shared.D.view(np.int64))


def test_field_values_must_be_real():
    with pytest.raises(ValueError, match="real"):
        WignerField(GRID, np.zeros(GRID.shape, dtype=complex))


@pytest.mark.parametrize("bad", [lambda g: g[:-1], lambda g: g.T[:, :-1],
                                 lambda g: g + 0j, lambda g: g[0]],
                         ids=["short", "transposed-short", "complex", "one-row"])
def test_field_gradients_must_be_real_and_grid_shaped(bad):
    # such a gradient was accepted, and fisher_from_field died on it with
    # a broadcast ValueError or a UFuncTypeError
    field = wigner_gradient(fock_density(1), GRID)
    W, gq, gp = field.values, field.grad_q, field.grad_p
    for args in ((W, bad(gq), gp), (W, gq, bad(gp))):
        with pytest.raises(ValueError, match="grad_"):
            WignerField(GRID, *args)
    for axis in ("grad_q", "grad_p"):
        with pytest.raises(AttributeError):
            setattr(field, axis, bad(getattr(field, axis)))
    assert field.grad_q is gq and field.grad_p is gp
    assert WignerField(GRID, W, None, gp).grad_q is None


# ------------------------------------------------------------- folded fields


def _gkp_1025():
    rho = gkp_logical(0, 10 ** (-10 / 20), n_c=60).to_density()
    extent = np.sqrt(2.0 * 61) + 3.0
    return wigner_from_fock(rho, PhaseSpaceGrid(-extent, extent, -extent, extent, 1025, 1025))


def _smoothed_cat():
    expansion = wigner._expand(cat(1.2, "even", 30).to_density().entries)
    maps = ((1.0, 2e-3), (1.0, 4e-3))
    return wigner._synthesize_mapped(expansion, GRID, False, maps, "smoothed Wigner field")


def _channel_output():
    rho, spec = cat(1.5, "even", 30), ThermalLossSpec(0.7, 0.2)
    grid = PhaseSpaceGrid.for_moments(*spec.output_moments(*state_moments(rho)), points=129)
    return thermal_loss_phase_space(rho, spec, grid)


#: a synthesized field and the parities (q, p) it is held folded along
FOLDED_FIELDS = {
    "cat": (lambda: wigner_from_fock(cat(1.5, "even", 40).to_density(), GRID), (0, 0)),
    "odd-cat": (lambda: wigner_from_fock(cat(1.5, "odd", 40).to_density(), GRID), (0, 0)),
    "fock-3": (lambda: wigner_from_fock(fock_density(3), GRID), (0, 0)),
    "gkp-1025": (_gkp_1025, (0, 0)),
    "real-ds60": (lambda: wigner_from_fock(displaced_squeezed(2.0, 0.3, 60).to_density()),
                  (None, 0)),
    "qubit-pi/2": (lambda: wigner_from_fock(apply_qubit_state(0.75, np.pi / 2, 0.0), GRID),
                   (None, 0)),
    "gradient": (lambda: wigner_gradient(cat(1.2, "even", 30).to_density(), GRID), (0, 0)),
    "smoothed": (_smoothed_cat, (0, 0)),
    "phase-space": (_channel_output, (0, 0)),
}


@pytest.mark.parametrize("name", list(FOLDED_FIELDS))
def test_unfolded_arrays_are_the_block_mirrored_with_its_parity(name):
    make, fold = FOLDED_FIELDS[name]
    field = make()
    assert field._parity == fold
    held, blocks = field._arrays, [None if a is None else a.copy() for a in field._arrays]
    shape = field.grid.shape
    hs = [n // 2 if f is not None else 0 for n, f in zip(shape, fold)]
    assert [b.shape for b in blocks if b is not None] == [(shape[0] - hs[0], shape[1] - hs[1])] * (
        3 if field.has_gradient else 1)
    arrays = [field.values, field.grad_q, field.grad_p]
    # the field still holds its blocks, unchanged, and keeps what it unfolded
    assert field._parity == fold and field._arrays is held
    assert [None if a is None else a.tobytes() for a in held] == [
        None if b is None else b.tobytes() for b in blocks]
    assert all(a is b for a, b in zip(arrays, (field.values, field.grad_q, field.grad_p)))
    for derivative, (block, full) in enumerate(zip(blocks, arrays), start=-1):
        if block is None:
            assert full is None
            continue
        assert full.shape == shape and full.flags.c_contiguous and not full.flags.writeable
        assert full[hs[0]:, hs[1]:].tobytes() == block.tobytes()
        for axis, (h, f) in enumerate(zip(hs, fold)):
            if f is None:
                continue
            # x < 0 is x > 0 reversed, negated where the array is odd there
            near = np.take(full, np.arange(h), axis)
            far = np.flip(np.take(full, np.arange(shape[axis] - h, shape[axis]), axis), axis)
            odd = (f + (axis == derivative)) % 2
            assert near.tobytes() == (np.negative(far) if odd else far).tobytes()


def test_a_cat_holds_its_quadrant_until_read():
    field = wigner_from_fock(cat(1.5, "even", 40).to_density(), GRID)
    quadrant = (GRID.n_q // 2 + 1) * (GRID.n_p // 2 + 1)
    assert field._arrays[0].size == quadrant
    moments(field)
    negative_volume(field)
    assert field._arrays[0].size == quadrant
    assert field.values.shape == GRID.shape
    # a read unfolds a copy: the field still holds, and its passes still read, the quadrant
    assert field._arrays[0].size == quadrant


#: a synthesized field, folded along both axes, and one built by hand
IMMUTABLE_FIELDS = {
    "synthesized": lambda: wigner_gradient(cat(1.5, "even", 40).to_density(), GRID),
    "built": lambda: WignerField(GRID, *(np.full(GRID.shape, v) for v in (0.1, 0.2, 0.3))),
}


@pytest.mark.parametrize("name", list(IMMUTABLE_FIELDS))
def test_a_field_cannot_be_assigned_or_written(name):
    field = IMMUTABLE_FIELDS[name]()
    for axis in ("values", "grad_q", "grad_p"):
        array = getattr(field, axis)
        with pytest.raises(AttributeError):
            setattr(field, axis, array.copy())
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
        assert getattr(field, axis) is array


def test_a_tilted_cat_is_read_as_what_it_is():
    # assigning a tilted cat to an even cat's field kept the even claim, so
    # the passes read half of it: d = (0, 0) and Re mu = 0.632706
    field = wigner_from_fock(cat(1.5).to_density())
    tilted = field.values * (1.0 + 1e-4 * np.tanh(field.grid.p))
    with pytest.raises(AttributeError):
        field.values = tilted
    assert moments(WignerField(field.grid, tilted)).d[1] > 1e-5
    # the cat shifted by 40 rows keeps its mass 1
    shifted = WignerField(field.grid, np.roll(field.values, 40, axis=0))
    assert abs(integrate(shifted.values, field.grid) - 1.0) < 1e-9
    assert moments(shifted).d[0] > 0.0


@pytest.mark.parametrize("make", [lambda: cat(1.5, "even", 40).to_density(),
                                  lambda: displaced_squeezed(1.2, -0.4, 50).to_density(),
                                  lambda: random_qudit(4, seed=3)],
                         ids=["cat", "real-ds", "complex-qudit"])
def test_reading_a_field_changes_no_number(make):
    rho = make()
    grid = default_grid(rho, points=257)

    def numbers(read):
        field = wigner_gradient(rho, grid)
        if read:
            assert field.values is not None and field.has_gradient
            assert field.grad_q is not None and field.grad_p is not None
        value, m, fisher = measure_from_field(field), moments(field), fisher_from_field(field)
        return (repr(vars(value)), m.d.tobytes(), m.V.tobytes(),
                *(np.asarray(getattr(fisher, k)).tobytes() for k in vars(fisher)))

    assert numbers(read=True) == numbers(read=False)


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
    nan_gradient = WignerField(GRID, f.values, np.full(GRID.shape, np.nan), f.grad_p)
    nan_gradient._expansion = f._expansion
    with pytest.raises(ConsistencyError):
        _check_gradient(nan_gradient)


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
    arrays = {name: getattr(field, name) for name in ("values", "grad_q", "grad_p")}
    arrays[axis] = arrays[axis] * (1.0 + rel)
    perturbed = WignerField(field.grid, *arrays.values())
    perturbed._expansion = field._expansion
    with pytest.raises(ConsistencyError):
        _check_gradient(perturbed)

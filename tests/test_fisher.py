"""Fisher matrix, drift condition, Cramer-Rao gap, smoothing identities.

Closed-form anchors: the vacuum has J = 2I = V^-1; any Gaussian has
J = V^-1; for the single-photon state the radial reduction of the
principal-value integral evaluates to

    J_qq = 2 + 2 e^{-1/2} (E_1(1/2) - 2 Shi(1/2)) = 1.449008...

which doubles as the target for the finite-difference smoothing slope
(entropy gains (1/2)Tr[G J] per unit smoothing strength).
"""

import math
import tracemalloc

import numpy as np
import pytest
from test_numerics import padded_convolve_gaussian

from ngm import fisher as fisher_module
from ngm import numerics
from ngm.channels import ThermalLossSpec, thermal_loss_fock
from ngm.cli import main
from ngm.errors import NumericalError
from ngm.fock import (
    FockDensityMatrix,
    FockVector,
    cat,
    displaced_squeezed,
    random_qudit,
    as_density,
)
from ngm.fisher import (
    BAND_DEFAULT,
    CONVERGENCE_LIMIT,
    NEGATIVITY_FLOOR,
    RESOLUTION_CELLS,
    TAIL_FLOOR,
    cramer_rao_check,
    debruijn_check,
    fisher_from_field,
    fisher_matrix,
    fock_fisher_sweep,
    measure_derivative_check,
    monotonicity_condition,
)
from ngm.numerics import PhaseSpaceGrid, integrate
from ngm.measure import wigner_entropy_real
from ngm.wigner import WignerField, moments, wigner_from_fock, wigner_gradient

# Radial principal-value reduction for |1><1| (see module docstring);
# cross-checked against scipy's Cauchy-weight quadrature of the same
# integral, which agrees to machine precision.
FOCK1_J_QQ = 1.4490034028974595


def fock_density(n):
    amps = np.zeros(n + 1)
    amps[n] = 1.0
    return FockVector(amps).to_density()


def geometric_mixture(ratio=0.5, n_max=20):
    weights = ratio ** np.arange(n_max + 1)
    return FockDensityMatrix(np.diag(weights / weights.sum()).astype(complex))


def rotate_fock(rho, theta):
    phases = np.exp(-1j * theta * np.arange(rho.dim))
    return FockDensityMatrix(
        phases[:, None] * rho.entries * phases[None, :].conj()
    )


def test_fock1_constant_matches_quadrature_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    value = 2 + 2 * mpmath.exp(-0.5) * (
        mpmath.e1(0.5) - 2 * mpmath.shi(0.5)
    )
    assert abs(float(value) - FOCK1_J_QQ) < 1e-12


def test_fisher_vacuum_identity():
    fm = fisher_matrix(fock_density(0))
    assert np.allclose(fm.J, 2.0 * np.eye(2), atol=1e-4)
    assert fm.excluded_fraction == 0.0
    assert fm.converged
    assert np.linalg.eigvalsh(fm.J)[0] >= -1e-8


def test_fisher_gaussian_equals_inverse_covariance():
    state = displaced_squeezed(0.8 + 0.3j, 0.4, n_c=60)
    field = wigner_gradient(as_density(state))
    fm = fisher_from_field(field)
    V = moments(field).V
    assert np.max(np.abs(fm.J - np.linalg.inv(V))) < 1e-3


def test_fisher_gaussian_equality_random_states():
    rng = np.random.default_rng(21)
    for _ in range(10):
        alpha = complex(*rng.uniform(-0.8, 0.8, size=2))
        xi = rng.uniform(-0.5, 0.5)
        field = wigner_gradient(
            as_density(displaced_squeezed(alpha, xi, n_c=60))
        )
        fm = fisher_from_field(field)
        V = moments(field).V
        assert np.max(np.abs(fm.J - np.linalg.inv(V))) < 1e-3


def test_fisher_fock1_closed_form():
    fm = fisher_matrix(fock_density(1))
    assert fm.J[0, 0] == pytest.approx(FOCK1_J_QQ, abs=5e-3)
    assert fm.J[1, 1] == pytest.approx(FOCK1_J_QQ, abs=5e-3)
    assert abs(fm.J[0, 1]) < 1e-6
    assert 0.0 < fm.excluded_fraction < 0.05


def test_fisher_fock1_band_gap_tightens_with_resolution():
    coarse = fisher_matrix(fock_density(1), points=513)
    fine = fisher_matrix(fock_density(1), points=1025)
    assert fine.rel_gap < coarse.rel_gap
    assert coarse.converged and fine.converged


def test_fisher_requires_gradient_field():
    field = wigner_from_fock(fock_density(0))
    with pytest.raises(ValueError):
        fisher_from_field(field)


def test_fisher_rejects_nonpositive_band():
    field = wigner_gradient(fock_density(0))
    with pytest.raises(ValueError):
        fisher_from_field(field, band=0.0)


@pytest.mark.parametrize("band", [np.nan, np.inf], ids=["nan", "inf"])
def test_fisher_rejects_non_finite_band(band):
    field = wigner_gradient(fock_density(0), points=129)
    with pytest.raises(ValueError, match="finite"):
        fisher_from_field(field, band=band)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("part", ["values", "grad_q", "grad_p"])
@pytest.mark.parametrize("n", [0, 1], ids=["vacuum", "one-photon"])
def test_fisher_rejects_non_finite_field(n, part, bad):
    # the vacuum takes the sign-definite route, |1> the banded one
    field = wigner_gradient(fock_density(n), points=129)
    parts = {key: getattr(field, key).copy() for key in ("values", "grad_q", "grad_p")}
    parts[part][40, 70] = bad
    broken = WignerField(field.grid, parts["values"], parts["grad_q"], parts["grad_p"])
    with pytest.raises(NumericalError, match="non-finite"):
        fisher_from_field(broken)


def whole_field_fisher(field, band=BAND_DEFAULT):
    """The Fisher matrix by whole-field integrals, as an oracle.

    Each band level builds its tube weight over the whole field, and each
    entry, the excluded and the total |W| mass is its own integrate call.
    Returns (J, J_band, J_half_band, excluded_fraction, rel_gap, converged).
    """
    W, grid = field.values, field.grid
    pairs = ((0, 0, field.grad_q, field.grad_q), (0, 1, field.grad_q, field.grad_p),
             (1, 1, field.grad_p, field.grad_p))

    def tube_weight(width, band):
        thresh = np.maximum(band / math.pi, width * np.hypot(field.grad_q, field.grad_p))
        t = np.clip(np.abs(W) / thresh, 0.0, 1.0)
        return t**3 * (10.0 + t * (-15.0 + 6.0 * t))

    def weighted_integral(weight):
        kernel = weight / np.where(W == 0.0, 1.0, W)
        entries = np.empty((2, 2))
        for i, j, gi, gj in pairs:
            entries[i, j] = entries[j, i] = integrate(gi * gj * kernel, grid)
        return entries

    if W.min() >= NEGATIVITY_FLOOR * max(W.max(), TAIL_FLOOR):
        J = weighted_integral(W != 0.0)
        return J, J, J, 0.0, 0.0, True
    step = max(grid.dq, grid.dp)
    weight_full = tube_weight(2.0 * RESOLUTION_CELLS * step, band)
    J_full = weighted_integral(weight_full)
    J_half = weighted_integral(tube_weight(RESOLUTION_CELLS * step, 0.5 * band))
    J = 2.0 * J_half - J_full
    rel_gap = np.linalg.norm(J_full - J_half) / max(np.linalg.norm(J), TAIL_FLOOR)
    excluded = integrate((1.0 - weight_full) * np.abs(W), grid)
    return (J, J_full, J_half, excluded / integrate(np.abs(W), grid), rel_gap,
            rel_gap <= CONVERGENCE_LIMIT)


@pytest.mark.parametrize("variance", [0.5, 1e20, 1e30])
def test_sign_definite_fisher_holds_at_any_scale(variance):
    # an analytic Gaussian field on +-8 sigma has J = I / variance; a floor
    # on |W| would drop its tails, or, past variance 1e30, the whole field
    s = math.sqrt(variance)
    grid = PhaseSpaceGrid(-8.0 * s, 8.0 * s, -8.0 * s, 8.0 * s, 257, 257)
    Q, P = grid.meshes()
    W = np.exp(-(Q**2 + P**2) / (2.0 * variance)) / (2.0 * math.pi * variance)
    field = WignerField(grid, W, -Q / variance * W, -P / variance * W)
    fm = fisher_from_field(field)
    assert fm.converged and fm.excluded_fraction == 0.0
    assert np.max(np.abs(fm.J * variance - np.eye(2))) < 1e-12


def lossy_qudit():
    return thermal_loss_fock(random_qudit(5, seed=3), ThermalLossSpec(0.7, 0.01))


FISHER_STATES = {
    "cat": lambda: cat(1.6),
    "one-photon": lambda: fock_density(1),
    "vacuum": lambda: fock_density(0),
    "displaced-squeezed": lambda: as_density(displaced_squeezed(0.8 + 0.3j, 0.4, n_c=60)),
    "lossy-qudit": lossy_qudit,
}
BANDED = ("cat", "one-photon")


@pytest.mark.parametrize("grid", ["513", "1025", "129x257"])
@pytest.mark.parametrize("state", list(FISHER_STATES))
def test_row_block_sweep_matches_whole_field_fisher(state, grid, monkeypatch):
    rho = FISHER_STATES[state]()
    if grid == "129x257":
        # off-centre axes are not mirrored; blocks of 11 rows leave a
        # partial last block of 8 (so do the mirrored 513 and 1025 grids)
        field = wigner_gradient(rho, grid=PhaseSpaceGrid(-6.5, 7.0, -7.0, 6.0, 129, 257))
        monkeypatch.setattr(fisher_module, "_row_blocks",
                            lambda shape, floats: numerics._row_blocks(shape, floats, 10 * 257))
    else:
        field = wigner_gradient(rho, points=int(grid))
    fm = fisher_from_field(field)
    J, J_band, J_half, excluded, rel_gap, converged = whole_field_fisher(field)
    # relative to the matrix: off-diagonal entries may vanish
    for got, want in ((fm.J, J), (fm.J_band, J_band), (fm.J_half_band, J_half)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert fm.converged == converged
    if state in BANDED:
        assert fm.excluded_fraction == pytest.approx(excluded, rel=1e-13, abs=0.0)
        assert fm.rel_gap == pytest.approx(rel_gap, rel=1e-13, abs=0.0)
        assert excluded > 0.0
    else:
        assert fm.excluded_fraction == 0.0 and fm.rel_gap == 0.0


def test_fisher_has_no_field_sized_temporaries():
    field = wigner_gradient(fock_density(1), points=1025)
    tracemalloc.start()
    try:
        fisher_from_field(field)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < field.values.nbytes / 4


def test_fisher_thermal_mixture_equality_and_cramer_rao():
    # the geometric Fock mixture is a thermal (Gaussian) state up to
    # truncation, so J = V^-1 almost exactly and the Cramer-Rao gap is
    # positive only through the truncation residue
    field = wigner_gradient(geometric_mixture())
    fm = fisher_from_field(field)
    V = moments(field).V
    assert np.max(np.abs(fm.J - np.linalg.inv(V))) < 1e-4
    report = cramer_rao_check(V, fm.J)
    assert report["passes"]
    assert 0.0 < report["min_eigenvalue"] < 1e-5


def test_cramer_rao_vacuum_saturates():
    field = wigner_gradient(fock_density(0))
    fm = fisher_from_field(field)
    report = cramer_rao_check(moments(field).V, fm.J)
    assert np.max(np.abs(report["eigenvalues"])) < 1e-6
    assert report["passes"]


def test_cramer_rao_fock1_reported_not_asserted():
    # the bound is a theorem only for nonnegative fields; for |1><1|
    # the report is informational
    field = wigner_gradient(fock_density(1))
    fm = fisher_from_field(field)
    report = cramer_rao_check(moments(field).V, fm.J)
    assert isinstance(report["passes"], bool)
    assert report["eigenvalues"].shape == (2,)


def test_cramer_rao_singular_fisher_raises():
    with pytest.raises(NumericalError):
        cramer_rao_check(np.eye(2), np.zeros((2, 2)))


def test_cramer_rao_rejects_nan():
    with pytest.raises(NumericalError):
        cramer_rao_check(0.5 * np.eye(2), np.array([[np.nan, 0.0], [0.0, 2.0]]))
    with pytest.raises(NumericalError):
        cramer_rao_check(np.full((2, 2), np.nan), 2.0 * np.eye(2))


def test_monotonicity_condition_gaussian_zero():
    state = displaced_squeezed(0.5 - 0.2j, 0.3, n_c=60)
    field = wigner_gradient(as_density(state))
    fm = fisher_from_field(field)
    G = np.array([[1.0, 0.3], [0.3, 2.0]])
    assert abs(monotonicity_condition(moments(field).V, fm.J, G)) < 1e-3


def test_monotonicity_condition_vacuum_zero():
    field = wigner_gradient(fock_density(0))
    fm = fisher_from_field(field)
    value = monotonicity_condition(moments(field).V, fm.J, np.eye(2))
    assert abs(value) < 1e-3


def test_monotonicity_condition_fock1_negative():
    fm = fisher_matrix(fock_density(1))
    value = monotonicity_condition(1.5 * np.eye(2), fm.J, np.eye(2))
    assert value < -1.0


def test_monotonicity_condition_rejects_singular_covariance():
    with pytest.raises(ValueError):
        monotonicity_condition(np.zeros((2, 2)), np.eye(2), np.eye(2))


@pytest.mark.parametrize("which", [0, 1, 2], ids=["V", "J", "G"])
def test_monotonicity_condition_rejects_nan(which):
    args = [0.5 * np.eye(2), 2.0 * np.eye(2), np.eye(2)]
    args[which] = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(NumericalError):
        monotonicity_condition(*args)


def test_debruijn_vacuum_slope_two():
    report = debruijn_check(fock_density(0), np.eye(2))
    assert report["slope"] == pytest.approx(2.0, rel=1e-2)
    assert report["reference"] == pytest.approx(2.0, abs=1e-4)


def test_debruijn_fock1_dual_route():
    report = debruijn_check(fock_density(1), np.eye(2))
    assert report["rel_error"] < 0.02


def test_debruijn_cat_dual_route():
    report = debruijn_check(cat(1.5), np.eye(2), points=1025)
    assert report["rel_error"] < 0.02


def test_debruijn_zero_direction():
    report = debruijn_check(fock_density(1), np.zeros((2, 2)))
    assert abs(report["slope"]) < 1e-6
    assert report["reference"] == 0.0


def test_debruijn_rejects_bad_epsilons():
    with pytest.raises(ValueError):
        debruijn_check(fock_density(0), np.eye(2), epsilons=[1e-3])
    with pytest.raises(ValueError):
        debruijn_check(fock_density(0), np.eye(2), epsilons=[1e-4, 1e-3])


@pytest.mark.parametrize("check", [debruijn_check, measure_derivative_check])
@pytest.mark.parametrize(
    "G, epsilons",
    [(np.eye(2), [np.nan, 1e-4]), (np.eye(2), [np.inf, 1e-3]),
     (np.array([[1.0, 0.0], [0.0, np.nan]]), None), (np.array([[np.inf, 0.0], [0.0, 1.0]]), None)],
    ids=["nan-epsilon", "inf-epsilon", "nan-G", "inf-G"],
)
def test_smoothing_checks_reject_non_finite_arguments(check, G, epsilons):
    with pytest.raises(ValueError, match="finite"):
        check(fock_density(0), G, epsilons=epsilons, points=129)


@pytest.mark.parametrize("check", [debruijn_check, measure_derivative_check])
@pytest.mark.parametrize(
    "G, match",
    [(np.array([[1.0, 0.3], [0.0, 1.0]]), "symmetric"), (-np.eye(2), "semi-definite"),
     (np.array([[1.0, 2.0], [2.0, 1.0]]), "semi-definite"), (np.eye(3), "2x2")],
    ids=["asymmetric", "negative", "indefinite", "3x3"],
)
def test_smoothing_checks_reject_non_covariance(check, G, match):
    # an asymmetric G has no Gaussian kernel, a negative one would deconvolve
    with pytest.raises(ValueError, match=match):
        check(fock_density(1), G, points=129)


#: a non-diagonal smoothing direction, turned pi/4 off the axes
TILTED_G = np.array([[1.0, 0.5], [0.5, 1.0]])


def test_debruijn_tilted_direction():
    for rho in (fock_density(1), as_density(displaced_squeezed(0.4 + 0.5j, -0.3, n_c=60))):
        report = debruijn_check(rho, TILTED_G)
        assert report["reference"] == pytest.approx(
            0.5 * np.trace(TILTED_G @ fisher_matrix(rho).J), rel=1e-12)
        assert report["rel_error"] < 0.02


def test_measure_derivative_tilted_direction():
    report = measure_derivative_check(fock_density(1), TILTED_G)
    assert report["rel_error"] < 0.03
    assert report["derivative"] < 0.0
    assert report["sign_agrees"]
    # a Gaussian's drift vanishes in every direction
    state = as_density(displaced_squeezed(0.4 + 0.5j, -0.3, n_c=60))
    report = measure_derivative_check(state, TILTED_G)
    assert abs(report["derivative"]) < 1e-3
    assert abs(report["reference"]) < 1e-3
    assert report["sign_agrees"]


def test_tilted_smoothing_matches_the_fft_oracle_on_a_gaussian():
    # the turned state's entropy increments against the padded FFT
    # convolution of the untouched field by eps G (measured gap 3.3e-9;
    # on a cat, whose -int W ln|W| carries an orientation-dependent
    # quadrature error, up to 2e-5 at 513 points)
    rho = as_density(displaced_squeezed(0.4 + 0.5j, -0.3, n_c=60))
    field = wigner_gradient(rho)
    report = debruijn_check(rho, TILTED_G)
    want = [wigner_entropy_real(WignerField(field.grid, padded_convolve_gaussian(
        field.values, field.grid, eps * TILTED_G))) for eps in report["epsilons"]]
    got = np.subtract(report["entropies"], report["base_entropy"])
    assert np.max(np.abs(got - np.subtract(want, wigner_entropy_real(field)))) < 1e-8


def test_measure_derivative_gaussian_zero():
    state = displaced_squeezed(0.4 + 0.5j, -0.3, n_c=60)
    report = measure_derivative_check(as_density(state), np.eye(2))
    assert abs(report["derivative"]) < 1e-3
    assert abs(report["reference"]) < 1e-3
    assert report["sign_agrees"]


def test_measure_derivative_fock1():
    report = measure_derivative_check(fock_density(1), np.eye(2))
    assert report["rel_error"] < 0.03
    assert report["derivative"] < 0.0
    assert report["sign_agrees"]


def test_measure_derivative_cat():
    report = measure_derivative_check(cat(1.5), np.eye(2), points=1025)
    assert report["rel_error"] < 0.03
    assert report["sign_agrees"]


def test_rotation_invariance_gaussian():
    theta = np.pi / 4
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, s], [-s, c]])
    rho = as_density(displaced_squeezed(0.0, 0.5, n_c=60))
    grid = PhaseSpaceGrid(-8, 8, -8, 8, 513, 513)
    J0 = fisher_matrix(rho, grid=grid).J
    J1 = fisher_matrix(rotate_fock(rho, theta), grid=grid).J
    assert np.max(np.abs(J1 - R @ J0 @ R.T)) < 1e-3


def test_rotation_invariance_qudit():
    # for Wigner-negative states the excision tube realigns with the
    # lattice under rotation; the measured equivariance floor is ~5e-3,
    # an order above the sign-definite case
    theta = np.pi / 4
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, s], [-s, c]])
    rho = as_density(random_qudit(2, seed=11))
    grid = PhaseSpaceGrid(-8, 8, -8, 8, 513, 513)
    J0 = fisher_matrix(rho, grid=grid).J
    J1 = fisher_matrix(rotate_fock(rho, theta), grid=grid).J
    assert np.max(np.abs(J1 - R @ J0 @ R.T)) < 1e-2


def test_fock_sweep_trend_and_format():
    rows = fock_fisher_sweep(n_max=5, points=1025)
    assert [row["n"] for row in rows] == list(range(6))
    for row in rows:
        # equality holds for the vacuum, so allow quadrature slack
        assert row["trace_J"] >= row["trace_Vinv"] - 1e-6
        assert 0.0 <= row["excluded_fraction"] < 1.0
        assert row["band"] == pytest.approx(1e-4)


def test_fock_sweep_threaded_matches_serial():
    serial = fock_fisher_sweep(n_max=3, points=257)
    threaded = fock_fisher_sweep(n_max=3, points=257, workers=3)
    assert serial == threaded


def test_write_fisher_csv_roundtrip(tmp_path, capsys):
    # the sweep CSV is written by the CLI; it holds the library's rows
    rows = fock_fisher_sweep(n_max=2, points=257)
    path = tmp_path / "sweep.csv"
    assert main(["fisher", "--fock-sweep", "2", "--grid-points", "257",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,trace_J,trace_Vinv,excluded_fraction,band"
    assert len(lines) == 4
    for line, row in zip(lines[1:], rows, strict=True):
        assert line.split(",") == [repr(row[key]) for key in row]

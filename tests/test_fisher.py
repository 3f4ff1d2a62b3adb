"""Fisher matrix, drift condition, Cramer-Rao gap, smoothing identities.

Closed-form anchors: the vacuum has J = 2I = V^-1; any Gaussian has
J = V^-1; for the single-photon state the radial reduction of the
principal-value integral evaluates to

    J_qq = 2 + 2 e^{-1/2} (E_1(1/2) - 2 Shi(1/2)) = 1.449008...

which doubles as the target for the finite-difference smoothing slope
(entropy gains (1/2)Tr[G J] per unit smoothing strength).
"""

import numpy as np
import pytest

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
    FisherMatrix,
    cramer_rao_check,
    debruijn_check,
    fisher_from_field,
    fisher_matrix,
    fock_fisher_sweep,
    measure_derivative_check,
    monotonicity_condition,
    write_fisher_csv,
)
from ngm.numerics import PhaseSpaceGrid
from ngm.wigner import moments, wigner_from_fock, wigner_gradient

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
    fm.validate(positive=True)


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


def test_write_fisher_csv_roundtrip(tmp_path):
    rows = fock_fisher_sweep(n_max=2, points=257)
    path = tmp_path / "sweep.csv"
    write_fisher_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,trace_J,trace_Vinv,excluded_fraction,band"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == pytest.approx(rows[0]["trace_J"])


def test_fisher_matrix_dataclass_validate_symmetry():
    fm = FisherMatrix(
        J=np.array([[1.0, 0.5], [0.2, 1.0]]),
        J_band=np.eye(2),
        J_half_band=np.eye(2),
        band=1e-4,
        excluded_fraction=0.0,
        rel_gap=0.0,
        converged=True,
    )
    with pytest.raises(NumericalError):
        fm.validate()


def test_fisher_matrix_validate_rejects_nan():
    fm = FisherMatrix(
        J=np.full((2, 2), np.nan),
        J_band=np.eye(2),
        J_half_band=np.eye(2),
        band=1e-4,
        excluded_fraction=0.0,
        rel_gap=0.0,
        converged=True,
    )
    with pytest.raises(NumericalError):
        fm.validate()

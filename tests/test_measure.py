"""Measure assembly: entropies, the complex measure, scans, and bounds.

Expected values are closed forms: the vacuum Wigner entropy 1 + ln(pi),
the Gaussian entropy ln(2 pi e sqrt(det V)), the Fock-1 negative volume
2 e^{-1/2} - 1, and the displacement offset of the Gaussian cross term.
"""

import numpy as np
import pytest
from expm_unitaries import displace_state, squeeze_state

from ngm.errors import ConsistencyError, NumericalError
from ngm.fock import (
    FockDensityMatrix,
    FockVector,
    cat,
    coherent,
    displaced_squeezed,
    random_qudit,
    state_moments,
)
from ngm.measure import (
    MeasureValue,
    entropy_upper_bound_check,
    gaussian_associate_entropy,
    minimizer_scan,
    ngm,
    product_measure_check,
    wigner_entropy_real,
    wre_vs_gaussian,
)
from ngm.numerics import PhaseSpaceGrid
from ngm.wigner import GaussianMoments, moments, wigner_from_fock

VACUUM_ENTROPY = 1.0 + np.log(np.pi)
FOCK1_NEG_VOLUME = 2.0 * np.exp(-0.5) - 1.0


def fock_density(n):
    amps = np.zeros(n + 1)
    amps[n] = 1.0
    return FockVector(amps).to_density()


# ----------------------------------------------------------------- entropies


def test_vacuum_entropy_closed_form():
    field = wigner_from_fock(fock_density(0), points=257)
    assert wigner_entropy_real(field) == pytest.approx(VACUUM_ENTROPY, abs=1e-6)


@pytest.mark.parametrize("alpha,xi", [(0.0, 0.6), (1.1 - 0.4j, 0.0), (0.5 - 0.3j, 0.6)])
def test_gaussian_entropy_matches_closed_form(alpha, xi):
    rho = displaced_squeezed(alpha, xi, n_c=60).to_density()
    field = wigner_from_fock(rho)
    _, cov = state_moments(rho)
    want = np.log(2.0 * np.pi * np.e * np.sqrt(np.linalg.det(cov)))
    assert wigner_entropy_real(field) == pytest.approx(want, abs=1e-6)


def test_fock1_entropy_grid_convergence():
    # the |W| kink at the zero circle limits Simpson to ~h^2 there, so the
    # doubling delta must shrink fourfold and sit below 1e-4 once converged
    values = [
        wigner_entropy_real(wigner_from_fock(fock_density(1), points=pts))
        for pts in (513, 1025, 2049)
    ]
    first = abs(values[1] - values[0])
    second = abs(values[2] - values[1])
    assert second < 1e-4
    assert second < first / 3.0


def test_gaussian_associate_entropy_trivials():
    base = GaussianMoments([0.0, 0.0], 0.5 * np.eye(2))
    assert gaussian_associate_entropy(base) == pytest.approx(1.0 + np.log(np.pi))
    unit = GaussianMoments([0.0, 0.0], np.eye(2))
    assert gaussian_associate_entropy(unit) == pytest.approx(1.0 + np.log(2.0 * np.pi))
    for s in (0.3, 1.0, 2.5):
        squeezed = GaussianMoments([0.0, 0.0], 0.5 * np.diag([np.exp(2 * s), np.exp(-2 * s)]))
        assert gaussian_associate_entropy(squeezed) == pytest.approx(1.0 + np.log(np.pi))


def test_gaussian_associate_entropy_singular_rejected():
    with pytest.raises(np.linalg.LinAlgError):
        gaussian_associate_entropy(GaussianMoments([0, 0], np.diag([1.0, 0.0])))


# ------------------------------------------------------------- MeasureValue


def test_measure_value_invariants():
    good = MeasureValue(0.5, np.pi * 0.2, 2.0, 2.5, 0.2)
    assert good.validate() is good
    assert good.mu == pytest.approx(0.5 + 1j * np.pi * 0.2)
    with pytest.raises(ConsistencyError):
        MeasureValue(0.5, 0.1, 2.0, 2.5, 0.2).validate()  # im != pi * negvol
    with pytest.raises(ConsistencyError):
        MeasureValue(0.4, np.pi * 0.2, 2.0, 2.5, 0.2).validate()  # re identity
    with pytest.raises(ConsistencyError):
        MeasureValue(0.5, -np.pi * 0.2, 2.0, 2.5, -0.2).validate()


def test_measure_value_rejects_nan():
    nan = float("nan")
    for args in [
        (0.5, nan, 2.0, 2.5, 0.2),
        (0.5, nan, 2.0, 2.5, nan),
        (nan, np.pi * 0.2, 2.0, 2.5, 0.2),
        (0.5, np.pi * 0.2, nan, 2.5, 0.2),
    ]:
        with pytest.raises(ConsistencyError):
            MeasureValue(*args).validate()


def test_measure_value_json_round_trip_fields():
    grid = PhaseSpaceGrid(-6, 6, -6, 6, 129, 129)
    v = MeasureValue(0.1, 0.2, 2.0, 2.1, 0.2 / np.pi, grid=grid)
    blob = v.to_json()
    assert blob["re_mu"] == 0.1
    assert blob["grid"]["n_q"] == 129
    assert blob["grid"]["q_max"] == 6.0


# --------------------------------------------------------------------- ngm


@pytest.mark.parametrize(
    "state",
    [
        FockVector([1.0]),
        coherent(1.2 + 0.5j),
        displaced_squeezed(0.5 - 0.3j, 0.6, n_c=60),
    ],
)
def test_measure_vanishes_on_gaussian_states(state):
    v = ngm(state)
    v.validate()
    assert abs(v.re_mu) < 1e-4
    assert v.im_mu < 1e-6


def test_fock1_measure_imaginary_closed_form():
    v = ngm(fock_density(1))
    v.validate()
    assert v.im_mu == pytest.approx(np.pi * FOCK1_NEG_VOLUME, abs=1e-4)
    assert v.neg_volume == pytest.approx(FOCK1_NEG_VOLUME, abs=1e-4)


def test_cat_endpoints():
    even_zero = ngm(cat(0.0, "even"))
    assert abs(even_zero.re_mu) < 1e-3
    assert even_zero.im_mu < 1e-6
    odd_small = ngm(cat(0.01, "odd"))
    one = ngm(fock_density(1))
    assert odd_small.re_mu == pytest.approx(one.re_mu, abs=1e-3)
    assert odd_small.im_mu == pytest.approx(one.im_mu, abs=1e-3)


def test_faithfulness_on_random_gaussians():
    rng = np.random.default_rng(7)
    for _ in range(6):
        alpha = rng.uniform(-2, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        xi = rng.uniform(-1, 1)
        v = ngm(displaced_squeezed(alpha, xi, n_c=80), points=257)
        assert abs(v.re_mu) < 1e-3
        assert v.im_mu < 1e-6


@pytest.mark.parametrize(
    "state", [fock_density(1), cat(1.5, "even"), random_qudit(2, seed=11)]
)
def test_gaussian_unitary_invariance(state):
    base = ngm(state)
    displaced = ngm(displace_state(state, 1.0 + 0.5j))
    squeezed = ngm(squeeze_state(state, 0.5))
    for moved in (displaced, squeezed):
        assert moved.re_mu == pytest.approx(base.re_mu, abs=5e-3)
        assert moved.im_mu == pytest.approx(base.im_mu, abs=5e-3)


# ------------------------------------------------------------ wre + minimum


def test_wre_at_associate_matches_measure():
    field = wigner_from_fock(fock_density(1))
    m = moments(field)
    v = ngm(fock_density(1))
    re, im = wre_vs_gaussian(field, m)
    assert re == pytest.approx(v.re_mu, abs=1e-10)
    assert im == pytest.approx(v.im_mu, abs=1e-12)


def test_wre_inflated_covariance_exceeds_associate():
    field = wigner_from_fock(fock_density(1))
    m = moments(field)
    inflated = GaussianMoments(m.d, 2.0 * m.V)
    re_assoc, _ = wre_vs_gaussian(field, m)
    re_infl, _ = wre_vs_gaussian(field, inflated)
    assert re_infl > re_assoc + 1e-3


def test_wre_displacement_offset_closed_form():
    field = wigner_from_fock(fock_density(1))
    m = moments(field)
    delta = np.array([0.7, -0.2])
    shifted = GaussianMoments(m.d + delta, m.V)
    re_assoc, _ = wre_vs_gaussian(field, m)
    re_shift, _ = wre_vs_gaussian(field, shifted)
    inv = np.linalg.inv(m.V)
    assert re_shift - re_assoc == pytest.approx(0.5 * delta @ inv @ delta, abs=1e-10)


@pytest.mark.parametrize("state", [fock_density(0), fock_density(1)])
def test_minimizer_scan_associate_wins(state):
    field = wigner_from_fock(state)
    report = minimizer_scan(field, count=100, seed=3)
    assert report["is_minimum"]
    assert report["worst_drop"] >= -1e-10
    assert report["count"] == 100


# ------------------------------------------------------------ product check


def test_product_vacuum_vacuum():
    rep = product_measure_check(fock_density(0), fock_density(0))
    assert abs(rep["re_mu_joint"]) < 5e-3
    assert abs(rep["re_gap"]) < 5e-3


def test_product_fock1_vacuum_imaginary_part():
    rep = product_measure_check(fock_density(1), fock_density(0))
    # the product identity holds between the joint and the negative factor
    # computed on the same coarse pipeline ...
    assert abs(rep["im_gap"]) < 5e-3
    # ... and the coarse value itself sits near the closed form (the 97-point
    # grid resolves the negative-lobe kink only to ~1e-2)
    assert rep["im_mu_expected"] == pytest.approx(np.pi * FOCK1_NEG_VOLUME, abs=1e-2)


def test_product_cat_vacuum_additivity():
    rep = product_measure_check(cat(1.5, "even"), fock_density(0))
    assert abs(rep["re_gap"]) < 1e-2


def test_product_capacity_cap():
    from ngm.errors import CapacityError

    with pytest.raises(CapacityError):
        product_measure_check(fock_density(0), fock_density(0), points=257)


# ------------------------------------------------------------ entropy bound


def test_entropy_bound_vacuum_equality():
    rep = entropy_upper_bound_check(wigner_from_fock(fock_density(0)))
    assert rep["holds"]
    assert abs(rep["slack"]) < 1e-6
    assert rep["form"] == "direct"


def test_entropy_bound_thermal_mixture_strict_slack():
    # a geometric Fock mixture is the n<=20 truncation of a Gaussian
    # (thermal) state, so the bound is near-tight: the slack is strictly
    # positive but tiny, driven only by the truncated tail
    weights = 0.5 ** np.arange(21)
    weights /= weights.sum()
    rho = FockDensityMatrix(np.diag(weights))
    rep = entropy_upper_bound_check(wigner_from_fock(rho))
    assert rep["holds"]
    assert 5e-8 < rep["slack"] < 1e-5


def test_entropy_bound_negative_field_requires_re_form():
    field = wigner_from_fock(fock_density(1))
    with pytest.raises(NumericalError):
        entropy_upper_bound_check(field)
    rep = entropy_upper_bound_check(field, re_form=True)
    assert rep["form"] == "re"
    assert rep["holds"]
    assert rep["bound"] == pytest.approx(np.log(2 * np.pi * np.e * 1.5), abs=1e-6)

"""Measure assembly: entropies, the complex measure, scans, and bounds.

Expected values are closed forms: the vacuum Wigner entropy 1 + ln(pi),
the Gaussian entropy ln(2 pi e sqrt(det V)), the Fock-1 negative volume
2 e^{-1/2} - 1, and the displacement offset of the Gaussian cross term.
"""

import math
import tracemalloc

import numpy as np
import pytest
from expm_unitaries import displace_state, rotate_state, squeeze_state
from hypothesis import given, settings
from hypothesis import strategies as st

import ngm.measure as measure_module
import ngm.wigner as wigner_module
from ngm.channels import ThermalLossSpec, thermal_loss_fock
from ngm.errors import ConsistencyError, NormalizationError, NumericalError
from ngm.fisher import SMOOTHING_EPSILONS, _smoothing_reports, fisher_from_field
from ngm.fock import (
    FockDensityMatrix,
    FockVector,
    cat,
    coherent,
    displaced_squeezed,
    gkp_logical,
    random_qudit,
    state_moments,
)
from ngm.measure import (
    MeasureValue,
    _gaussian_cross,
    entropy_upper_bound_check,
    gaussian_associate_entropy,
    measure_from_field,
    minimizer_scan,
    ngm,
    product_measure_check,
    wigner_entropy_real,
    wre_vs_gaussian,
)
from ngm.numerics import PhaseSpaceGrid, axis_weights
from ngm.wigner import (
    GaussianMoments,
    WignerField,
    _quadrature,
    moments,
    negative_volume,
    wigner_from_fock,
    wigner_gradient,
)

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


def test_gaussian_entropies_reject_nan_covariance():
    nan = GaussianMoments([0.0, 0.0], np.full((2, 2), np.nan))
    vacuum = GaussianMoments([0.0, 0.0], 0.5 * np.eye(2))
    with pytest.raises(np.linalg.LinAlgError):
        gaussian_associate_entropy(nan)
    with pytest.raises(np.linalg.LinAlgError):
        _gaussian_cross(vacuum, nan)


# ---------------------------------------------------------- quadrature pass


def two_d_weight_quadrature(field):
    """Moments, entropy and negative volume by explicit 2-D weights.

    These are the formulas the one-pass quadrature replaced: a field-sized
    weight array, the entropy integrand with its limit 0 where W = 0, and
    the negative part as half of |W| - W.
    """
    g = field.grid
    w = np.outer(axis_weights(g.n_q, g.dq), axis_weights(g.n_p, g.dp))
    W = field.values
    Q, P = g.meshes()
    dq, dp = np.sum(w * Q * W), np.sum(w * P * W)
    vqq = np.sum(w * (Q - dq) ** 2 * W)
    vpp = np.sum(w * (P - dp) ** 2 * W)
    vqp = np.sum(w * (Q - dq) * (P - dp) * W)
    mag = np.abs(W)
    integrand = W * np.log(np.where(mag == 0.0, 1.0, mag))
    return (
        np.array([dq, dp]),
        np.array([[vqq, vqp], [vqp, vpp]]),
        -float(np.sum(w * integrand)),
        0.5 * float(np.sum(w * (mag - W))),
    )


def lossy_qudit():
    return thermal_loss_fock(random_qudit(5, seed=3), ThermalLossSpec(0.7, 0.01))


@pytest.mark.parametrize(
    "make",
    [
        lambda: wigner_from_fock(fock_density(0)),
        lambda: wigner_from_fock(fock_density(1)),
        lambda: wigner_from_fock(cat(1.5, "even")),
        lambda: wigner_from_fock(lossy_qudit()),
        lambda: wigner_from_fock(
            gkp_logical(0, 10 ** (-10 / 20), n_c=60), points=1025
        ),
    ],
    ids=["vacuum", "one-photon", "cat", "lossy-qudit", "gkp-1025"],
)
def test_quadrature_matches_two_d_weights(make):
    field = make()
    m, entropy, neg = _quadrature(field)
    d, V, want_entropy, want_neg = two_d_weight_quadrature(field)
    # moments are O(1) for a unit-mass field, so 1 stands in for zero ones
    assert np.all(np.abs(m.d - d) <= 1e-14 * np.maximum(np.abs(d), 1.0))
    assert np.all(np.abs(m.V - V) <= 1e-14 * np.maximum(np.abs(V), 1.0))
    assert entropy == pytest.approx(want_entropy, rel=1e-14, abs=0.0)
    if want_neg == 0.0:
        assert neg == 0.0
    else:
        assert neg == pytest.approx(want_neg, rel=1e-14, abs=0.0)


def whole_field_quadrature(field):
    """The quadrature pass before row blocks, as an oracle.

    Marginals as whole-field matvecs, and the entropy integrand, then the
    negative part, in one field-sized buffer reduced as wq @ f @ wp.
    """
    W, g = field.values, field.grid
    wq, wp = axis_weights(g.n_q, g.dq), axis_weights(g.n_p, g.dp)
    marg_q, marg_p = W @ wp, wq @ W
    dq, dp = float((wq * g.q) @ marg_q), float(marg_p @ (wp * g.p))
    cq, cp = g.q - dq, g.p - dp
    vqq = float((wq * cq * cq) @ marg_q)
    vpp = float(marg_p @ (wp * cp * cp))
    vqp = float((wq * cq) @ W @ (wp * cp))
    buf = np.abs(W)
    buf[buf == 0.0] = 1.0
    np.log(buf, out=buf)
    buf *= W
    entropy = -float(wq @ buf @ wp)
    np.minimum(W, 0.0, out=buf)
    neg = 0.0 - float(wq @ buf @ wp)
    return np.array([dq, dp]), np.array([[vqq, vqp], [vqp, vpp]]), entropy, neg


@pytest.fixture(scope="module")
def gkp_1025():
    return wigner_from_fock(gkp_logical(0, 10 ** (-10 / 20), n_c=60), points=1025)


def lossy_qudit_on(n_q, n_p):
    return wigner_from_fock(
        lossy_qudit(), grid=PhaseSpaceGrid(-6.0, 6.0, -6.0, 6.0, n_q, n_p)
    )


@pytest.mark.parametrize(
    "shape", [None, "gkp", (129, 257), (1025, 65)],
    ids=["lossy-513", "gkp-1025", "129x257", "1025x65"],
)
def test_row_blocks_match_whole_field_pass(shape, gkp_1025):
    # 1025 and 129 rows are not multiples of the block rows, so the last
    # block is a partial one
    if shape is None:
        field = wigner_from_fock(lossy_qudit())
    elif shape == "gkp":
        field = gkp_1025
    else:
        field = lossy_qudit_on(*shape)
    m, entropy, neg = _quadrature(field)
    d, V, want_entropy, want_neg = whole_field_quadrature(field)
    assert np.all(np.abs(m.d - d) <= 1e-14 * np.maximum(np.abs(d), 1.0))
    assert np.all(np.abs(m.V - V) <= 1e-14 * np.maximum(np.abs(V), 1.0))
    assert entropy == pytest.approx(want_entropy, rel=1e-14, abs=0.0)
    if want_neg == 0.0:
        assert math.copysign(1.0, neg) == 1.0 and neg == 0.0
    else:
        assert neg == pytest.approx(want_neg, rel=1e-14, abs=0.0)


def test_quadrature_has_no_field_sized_temporaries(gkp_1025):
    tracemalloc.start()
    try:
        _quadrature(gkp_1025)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < gkp_1025.values.nbytes / 8


def test_zero_negative_volume_is_positive_zero():
    vacuum = ngm(fock_density(0))
    half = ngm(thermal_loss_fock(fock_density(1), ThermalLossSpec(0.5, 0.0)))
    for value in (vacuum.neg_volume, vacuum.im_mu, half.neg_volume, half.im_mu):
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0


def spy_on_quadrature(monkeypatch):
    calls = []

    def spy(field):
        calls.append(field)
        return _quadrature(field)

    for module in (wigner_module, measure_module):
        monkeypatch.setattr(module, "_quadrature", spy)
    return calls


def test_ngm_runs_one_quadrature_pass(monkeypatch):
    calls = spy_on_quadrature(monkeypatch)
    ngm(cat(1.5, "even")).validate()
    assert len(calls) == 1


def test_smoothing_reports_run_one_quadrature_pass_per_field(monkeypatch):
    rho = fock_density(1)
    field = wigner_gradient(rho)
    fisher = fisher_from_field(field)
    calls = spy_on_quadrature(monkeypatch)
    _smoothing_reports(rho, field, fisher, np.eye(2))
    assert len(calls) == 1 + len(SMOOTHING_EPSILONS)


def test_entropy_checks_the_mass():
    field = wigner_from_fock(fock_density(1))
    scaled = WignerField(field.grid, 1.001 * field.values)
    for integral in (wigner_entropy_real, negative_volume, measure_from_field):
        with pytest.raises(NormalizationError):
            integral(scaled)


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


# mu's quadrature error on 257-point grids, per state: R(θ) and
# R(θ)S(ξ)D(α) with |α| <= 1 and |ξ| <= 0.5 moved it by at most 1.1e-3,
# 7.3e-3 and 5.2e-4 over 112 draws, the ends of each range included
SMALL_GRID_INVARIANCE = [
    ("one-photon", fock_density(1), 3e-3),
    ("cat(1.5)", cat(1.5, "even"), 1e-2),
    ("qudit", random_qudit(3, seed=5), 1e-3),
]


@pytest.mark.parametrize("state,tol", [case[1:] for case in SMALL_GRID_INVARIANCE],
                         ids=[case[0] for case in SMALL_GRID_INVARIANCE])
@settings(max_examples=6, deadline=None)
@given(
    r=st.floats(0.0, 1.0),
    phase=st.floats(0.0, 2.0 * np.pi),
    xi=st.floats(-0.5, 0.5),
    theta=st.floats(0.0, 2.0 * np.pi),
)
def test_measure_invariant_under_gaussian_unitaries(state, tol, r, phase, xi, theta):
    base = ngm(state, points=257)
    for moved in (
        rotate_state(state, theta),
        rotate_state(squeeze_state(displace_state(state, r * np.exp(1j * phase)), xi), theta),
    ):
        value = ngm(moved, points=257)
        assert value.re_mu == pytest.approx(base.re_mu, abs=tol)
        assert value.im_mu == pytest.approx(base.im_mu, abs=tol)


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


def product_sweep_oracle(rho_a, rho_b, points):
    """``product_measure_check``'s report from a sweep of the 4-D joint grid.

    The joint entropy and negative volume are summed cell by cell over
    W_A(q1,p1) * W_B(q2,p2) with the product weights, one q1 row at a time,
    instead of being factored into the per-factor integrals.
    """
    fields = [wigner_from_fock(r, points=points) for r in (rho_a, rho_b)]
    (ma, ha, neg_a), (mb, hb, neg_b) = (
        measure_module._physical_quadrature(f) for f in fields
    )
    (WA, wa), (WB, wb) = (
        (f.values, np.outer(axis_weights(f.grid.n_q, f.grid.dq),
                            axis_weights(f.grid.n_p, f.grid.dp)))
        for f in fields
    )
    # ln 1 = 0 where a factor is 0: the integrand is 0 wherever the product is
    log_a = np.log(np.where(WA == 0.0, 1.0, np.abs(WA)))
    log_b = np.log(np.where(WB == 0.0, 1.0, np.abs(WB)))
    entropy = 0.0
    neg = 0.0
    for i in range(WA.shape[0]):
        block = WA[i][:, None, None] * WB[None, :, :]
        wblock = wa[i][:, None, None] * wb[None, :, :]
        weighted = wblock * block
        entropy -= float(np.sum(weighted * (log_a[i][:, None, None] + log_b[None, :, :])))
        neg += 0.5 * float(np.sum(wblock * np.abs(block) - weighted))
    v4 = np.zeros((4, 4))
    v4[:2, :2] = ma.V
    v4[2:, 2:] = mb.V
    h_g4 = gaussian_associate_entropy(GaussianMoments(np.concatenate((ma.d, mb.d)), v4))
    re_joint = h_g4 - entropy
    re_sum = gaussian_associate_entropy(ma) - ha + gaussian_associate_entropy(mb) - hb
    pos_a, pos_b = (float(W.min()) >= -1e-9 for W in (WA, WB))
    im_expected = np.pi * neg_b if pos_a else (np.pi * neg_a if pos_b else None)
    return {
        "re_mu_joint": re_joint,
        "re_mu_sum": re_sum,
        "re_gap": re_joint - re_sum,
        "im_mu_joint": np.pi * neg,
        "im_mu_expected": im_expected,
        "im_gap": None if im_expected is None else np.pi * neg - im_expected,
        "points": points,
        "cells": WA.size * WB.size,
    }


@pytest.mark.parametrize("pair", [
    (cat(1.5, "even"), fock_density(0)),
    (fock_density(1), fock_density(0)),
    (cat(1.5, "odd"), fock_density(1)),
], ids=["cat-vacuum", "one-photon-vacuum", "odd-cat-one-photon"])
def test_product_check_matches_the_joint_sweep(pair):
    rep = product_measure_check(*pair, points=65)
    want = product_sweep_oracle(*pair, points=65)
    assert rep.keys() == want.keys()
    for key, value in want.items():
        if value is None:
            assert rep[key] is None, key
        else:
            assert abs(rep[key] - value) <= 1e-12, key


def test_product_check_runs_past_the_old_cell_cap():
    # 257^4 = 4.4e9 joint cells: the factored sums never form the joint grid
    rep = product_measure_check(fock_density(0), fock_density(0), points=257)
    assert all(np.isfinite(v) for v in rep.values() if v is not None)
    assert abs(rep["re_gap"]) < 1e-2


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


# ------------------------------------------------------- scale and overflow


@pytest.mark.parametrize("variance", [0.5, 1e30, 1e100])
def test_entropy_of_a_wide_gaussian_field(variance):
    # a wide field lies below any fixed floor on |W|: one at 1e-30 zeroed
    # the whole integrand of this one from a variance of about 1e29 on
    s = math.sqrt(variance)
    grid = PhaseSpaceGrid(-8.0 * s, 8.0 * s, -8.0 * s, 8.0 * s, 257, 257)
    Q, P = grid.meshes()
    W = np.exp(-(Q**2 + P**2) / (2.0 * variance)) / (2.0 * np.pi * variance)
    want = np.log(2.0 * np.pi * np.e * variance)
    assert wigner_entropy_real(WignerField(grid, W)) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("variance", [1e-160, 1e160])
def test_gaussian_entropies_past_the_float_range_of_det(variance):
    # det V is 1e-320 (subnormal) or 1e320 (past the float range)
    wide = GaussianMoments([0.0, 0.0], variance * np.eye(2))
    want = np.log(2.0 * np.pi * np.e) + np.log(variance)
    assert gaussian_associate_entropy(wide) == pytest.approx(want, rel=1e-15)
    # -int W_G ln W_G is the Gaussian's own entropy
    assert _gaussian_cross(wide, wide) == pytest.approx(want, rel=1e-15)


def test_gaussian_entropy_takes_ln_det_where_det_is_a_float():
    # the values the measure has always printed, bit for bit
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = rng.standard_normal((2, 2))
        m = GaussianMoments([0.0, 0.0], a @ a.T + 0.5 * np.eye(2))
        want = np.log(2.0 * np.pi * np.e) + 0.5 * np.log(np.linalg.det(m.V))
        assert gaussian_associate_entropy(m) == want


def test_non_finite_field_moments_are_a_numerical_error():
    # variances of 1e250 overflow the moment integrals (weight times q^2)
    s = 1e125
    grid = PhaseSpaceGrid(-8.0 * s, 8.0 * s, -8.0 * s, 8.0 * s, 257, 257)
    Q, P = grid.meshes()
    W = np.exp(-0.5 * ((Q / s) ** 2 + (P / s) ** 2)) / (2.0 * np.pi * s * s)
    with pytest.raises(NumericalError, match="overflow"):
        _quadrature(WignerField(grid, W))

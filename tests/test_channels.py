"""Channel engines: Kraus sums, phase-space rescale/convolve, cross-checks.

Closed-form anchors: single-photon loss at eta=0.5 splits {0.5, 0.5};
vacuum acquires mean photon number (1-tau) n_bar under thermal loss and
G-1 under amplification; rescaling preserves mass, scales covariance by
s^2, and shifts the entropy by ln s^2.
"""

import warnings

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from ngm import channels
from ngm.errors import GridError, TruncationRiskError
from ngm.fock import (
    FockDensityMatrix,
    FockVector,
    cat,
    random_qudit,
    trim_density,
)
from ngm.channels import (
    KRAUS_ORDER_CAP,
    TRACE_DEFICIT_TOL,
    ThermalLossSpec,
    _bilinear,
    amplifier_kraus,
    pure_loss_kraus,
    rescale,
    thermal_loss_fock,
    thermal_loss_phase_space,
)
from ngm.measure import measure_from_field, ngm, wigner_entropy_real
from ngm.numerics import PhaseSpaceGrid
from ngm.wigner import moments, wigner_from_fock


def fock_density(n):
    amps = np.zeros(n + 1)
    amps[n] = 1.0
    return FockVector(amps).to_density()


def number_expectation(rho):
    return float(np.sum(np.arange(rho.dim) * np.diag(rho.entries).real))


# ----------------------------------------------------------------- the spec


def test_spec_derived_quantities():
    spec = ThermalLossSpec(0.5, 2.0)
    assert spec.gain == pytest.approx(2.0)
    assert spec.eta == pytest.approx(0.25)
    assert abs(spec.eta * spec.gain - spec.tau) < 1e-15
    assert ThermalLossSpec(1.0, 5.0).gain == 1.0


@pytest.mark.parametrize(
    "tau,n_bar",
    [(0.0, 0.0), (1.2, 0.0), (0.5, -0.1), (np.nan, 0.0), (0.5, np.nan), (0.5, np.inf)],
)
def test_spec_domain_errors(tau, n_bar):
    with pytest.raises(ValueError):
        ThermalLossSpec(tau, n_bar)


# -------------------------------------------------------------- Kraus sets


def loss_matrices(eta, l_max, dim):
    """The pure-loss operators as dense matrices, from their diagonals."""
    return [np.diag(v, l) for l, v in enumerate(pure_loss_kraus(eta, l_max, dim))]


def amplifier_matrices(gain, k_max, dim):
    """The amplifier operators as dense matrices, from their diagonals."""
    return [np.diag(v, -k) for k, v in enumerate(amplifier_kraus(gain, k_max, dim))]


def test_pure_loss_identity_at_unit_eta():
    ops = loss_matrices(1.0, 4, 6)
    assert np.allclose(ops[0], np.eye(6))
    for op in ops[1:]:
        assert np.allclose(op, 0.0)


def test_pure_loss_completeness():
    dim, l_max = 24, 12
    ops = loss_matrices(0.37, l_max, dim)
    total = sum(op.T @ op for op in ops)
    sub = total[: l_max + 1, : l_max + 1]
    assert np.max(np.abs(sub - np.eye(l_max + 1))) < 1e-10


def test_single_photon_loss_closed_form():
    spec = ThermalLossSpec(0.5, 0.0)
    out = thermal_loss_fock(fock_density(1), spec)
    assert out.entries[0, 0].real == pytest.approx(0.5, abs=1e-12)
    assert out.entries[1, 1].real == pytest.approx(0.5, abs=1e-12)


def test_amplifier_identity_at_unit_gain():
    ops = amplifier_matrices(1.0, 3, 5)
    assert np.allclose(ops[0], np.eye(5))
    for op in ops[1:]:
        assert np.allclose(op, 0.0)


def test_amplifier_completeness_protected_subspace():
    dim, k_max = 40, 30
    ops = amplifier_matrices(1.2, k_max, dim)
    total = sum(op.T @ op for op in ops)
    # completeness fails only where (a^dag)^k would overflow the cutoff
    protected = dim - k_max
    sub = total[:protected, :protected]
    assert np.max(np.abs(sub - np.eye(protected))) < 1e-8


def test_amplifier_vacuum_mean_photon():
    dim = 40
    ops = amplifier_matrices(1.2, 30, dim)
    vac = np.zeros((dim, dim))
    vac[0, 0] = 1.0
    out = sum(op @ vac @ op.T for op in ops)
    out /= np.trace(out)
    mean = float(np.sum(np.arange(dim) * np.diag(out)))
    assert mean == pytest.approx(0.2, abs=1e-6)


# ------------------------------------------------------------- Fock engine


def test_thermal_loss_identity_at_unit_tau():
    rho = cat(1.5, "even").to_density()
    out = thermal_loss_fock(rho, ThermalLossSpec(1.0, 0.3))
    assert out.dim == rho.dim
    assert np.max(np.abs(out.entries - rho.entries)) < 1e-12


@pytest.mark.parametrize("tau,n_bar", [(0.5, 0.0), (0.7, 0.4), (0.9, 2.0)])
def test_vacuum_thermal_occupancy(tau, n_bar):
    out = thermal_loss_fock(fock_density(0), ThermalLossSpec(tau, n_bar))
    assert number_expectation(out) == pytest.approx((1 - tau) * n_bar, abs=1e-6)


def test_loss_composition():
    rho = cat(1.2, "odd").to_density()
    one = thermal_loss_fock(
        thermal_loss_fock(rho, ThermalLossSpec(0.8, 0.0)), ThermalLossSpec(0.75, 0.0)
    )
    direct = thermal_loss_fock(rho, ThermalLossSpec(0.6, 0.0))
    d = min(one.dim, direct.dim)
    # agreement is limited by the trim-and-renormalize between stages
    assert np.max(np.abs(one.entries[:d, :d] - direct.entries[:d, :d])) < 1e-8


def test_truncation_deficit_reported():
    # thermal noise spreads the output past the doubled orders (60 / 60):
    # the escalation warns, and the trace it still misses is reported
    rho = cat(1.5, n_c=40).to_density()
    spec = ThermalLossSpec(0.05, 20.0)
    with pytest.warns(RuntimeWarning), pytest.raises(TruncationRiskError) as got:
        thermal_loss_fock(rho, spec)
    assert "trace 0.95549816" in str(got.value)
    # the same message and magnitude as the dense route
    with pytest.warns(RuntimeWarning), pytest.raises(TruncationRiskError) as want:
        dense_thermal_loss(rho, spec)
    assert str(got.value) == str(want.value)
    assert got.value.magnitude == want.value.magnitude


# ln(n!) for n = 0..256, the fixed table the Kraus builders once indexed
FIXED_LOG_FACTORIAL = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, 257.0)))))


def fixed_table_kraus(eta, gain, order, dim):
    """Both Kraus families from the fixed table, element for element as
    the builders computed them while they indexed it (dim <= 256)."""
    lf = FIXED_LOG_FACTORIAL
    loss, amp = [], []
    for l in range(order + 1):
        A = np.zeros((dim, dim))
        ns = np.arange(l, dim)
        A[ns - l, ns] = np.exp(0.5 * (
            l * np.log(1.0 - eta) - lf[l] + (ns - l) * np.log(eta) + lf[ns] - lf[ns - l]
        ))
        loss.append(A)
        B = np.zeros((dim, dim))
        ns = np.arange(0, dim - l)
        B[ns + l, ns] = np.exp(0.5 * (
            l * np.log((gain - 1.0) / gain) - lf[l] - np.log(gain)
            + lf[ns + l] - lf[ns] - ns * np.log(gain)
        ))
        amp.append(B)
    return loss, amp


@pytest.mark.parametrize("dim", [2, 7, 61, 200])
def test_kraus_matrices_equal_fixed_table_bitwise(dim):
    order = min(dim, 30)
    loss, amp = fixed_table_kraus(0.37, 1.2, order, dim)
    for got, want in zip(loss_matrices(0.37, order, dim), loss, strict=True):
        assert np.array_equal(got, want)
    for got, want in zip(amplifier_matrices(1.2, order, dim), amp, strict=True):
        assert np.array_equal(got, want)


def _kraus_apply(rho, ops):
    out = np.zeros_like(ops[0], dtype=complex)
    for op in ops:
        out += op @ rho @ op.conj().T
    return out


def dense_thermal_loss(rho, spec):
    """thermal_loss_fock with each Kraus order applied as two dense GEMMs,
    op @ rho @ op^dag, the amplifier acting on rho zero-padded to the
    output dimension.  Same orders, doubling rule, warning and error."""
    dim = rho.dim
    l_max = min(dim - 1, KRAUS_ORDER_CAP)
    k_max = KRAUS_ORDER_CAP
    escalate = True
    while True:
        lost = _kraus_apply(rho.entries, loss_matrices(spec.eta, min(l_max, dim), dim))
        out_dim = dim + k_max
        mid = np.zeros((out_dim, out_dim), dtype=complex)
        mid[:dim, :dim] = lost
        out = _kraus_apply(mid, amplifier_matrices(spec.gain, k_max, out_dim))
        trace = float(np.trace(out).real)
        if trace >= 1.0 - TRACE_DEFICIT_TOL:
            break
        if escalate:
            escalate = False
            l_max *= 2
            k_max *= 2
            warnings.warn(
                f"Kraus orders escalated to l_max={l_max}, k_max={k_max} "
                f"to close a trace deficit of {1.0 - trace:.3e}",
                RuntimeWarning,
            )
            continue
        raise TruncationRiskError(
            f"channel output keeps trace {trace:.8f} < 1 - {TRACE_DEFICIT_TOL:.0e} "
            f"at l_max={l_max}, k_max={k_max}",
            magnitude=1.0 - trace,
        )
    out /= trace
    return trim_density(FockDensityMatrix(out), tol=1e-12)


def recorded(engine, rho, spec):
    """engine's output entries and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        entries = engine(rho, spec).entries
    return entries, [str(w.message) for w in caught]


DIMENSION_STATES = {
    2: lambda: random_qudit(2, seed=4),
    7: lambda: random_qudit(7, seed=4),
    61: lambda: cat(1.5, n_c=60).to_density(),
    200: lambda: cat(1.5, n_c=199).to_density(),
    300: lambda: cat(1.0, n_c=299).to_density(),
}


@pytest.mark.parametrize("n_bar", [0.0, 0.2])
@pytest.mark.parametrize("dim", sorted(DIMENSION_STATES))
def test_thermal_loss_equals_dense_route_bitwise(dim, n_bar):
    rho = DIMENSION_STATES[dim]()
    assert rho.dim == dim
    spec = ThermalLossSpec(0.6, n_bar)
    got = thermal_loss_fock(rho, spec)
    assert np.array_equal(got.entries, dense_thermal_loss(rho, spec).entries)


def test_escalation_equals_dense_route_bitwise():
    rho = cat(5.0, n_c=100).to_density()
    spec = ThermalLossSpec(0.1, 0.0)
    got, got_warnings = recorded(thermal_loss_fock, rho, spec)
    want, want_warnings = recorded(dense_thermal_loss, rho, spec)
    assert np.array_equal(got, want)
    assert got_warnings == want_warnings
    assert len(got_warnings) == 1 and "Kraus orders escalated" in got_warnings[0]


@pytest.mark.parametrize(
    "rho,tau,passes",
    [(random_qudit(7, seed=0), 0.6, 1), (cat(5.0, n_c=100).to_density(), 0.1, 2)],
    ids=["one-pass", "escalated"],
)
def test_one_pure_loss_build_per_kraus_pass(monkeypatch, rho, tau, passes):
    # perfbench counts channels.kraus.escalations as the pure_loss_kraus
    # calls beyond the first inside one thermal_loss_fock
    calls = []

    def spy(*args):
        calls.append(args)
        return pure_loss_kraus(*args)

    monkeypatch.setattr(channels, "pure_loss_kraus", spy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        thermal_loss_fock(rho, ThermalLossSpec(tau, 0.0))
    assert len(calls) == passes
    assert len(caught) == passes - 1


@pytest.mark.parametrize("n_bar", [0.0, 0.1])
def test_thermal_loss_past_dim_257(n_bar):
    # the output space (dim + 30 levels) outgrows the old 257-entry table
    spec = ThermalLossSpec(0.5, n_bar)
    high = thermal_loss_fock(cat(1.0, n_c=300).to_density(), spec)
    low = thermal_loss_fock(cat(1.0, n_c=60).to_density(), spec)
    assert high.dim == low.dim
    assert np.max(np.abs(high.entries - low.entries)) <= 1e-12


# ----------------------------------------------------------------- rescale


def test_rescale_identity():
    f = wigner_from_fock(fock_density(0), points=257)
    out = rescale(f, 1.0)
    assert np.max(np.abs(out.values - f.values)) < 1e-12


@pytest.mark.parametrize("s", [0.7, 1.3])
def test_rescale_mass(s):
    f = wigner_from_fock(fock_density(0), points=257)
    assert rescale(f, s).integral() == pytest.approx(1.0, abs=1e-6)


def test_rescale_moments_scaling():
    # shrinking the vacuum gives a legitimate density below the
    # uncertainty bound, so the physical check must be opted out
    s = np.sqrt(0.6)
    f = wigner_from_fock(fock_density(0), points=513)
    m = moments(rescale(f, s), physical=False)
    # bilinear resampling has an ~1e-3 error floor; moments inherit it
    assert np.allclose(m.V, s**2 * 0.5 * np.eye(2), atol=1e-3)


def test_rescale_support_overflow():
    # a field that has not decayed at the boundary cannot be shrunk:
    # the resampler would need values beyond the grid
    grid = PhaseSpaceGrid(-2, 2, -2, 2, 65, 65)
    f = wigner_from_fock(fock_density(0), grid)
    with pytest.raises(GridError):
        rescale(f, 0.5)


# ------------------------------------------------------ phase-space engine


def interpolator_oracle(values, grid, q, p):
    """scipy's linear RegularGridInterpolator at the points (q_i, p_j)."""
    interp = RegularGridInterpolator(
        (grid.q, grid.p), values, method="linear", bounds_error=False, fill_value=0.0
    )
    Q, P = np.meshgrid(q, p, indexing="ij")
    return interp(np.stack((Q.ravel(), P.ravel()), axis=-1)).reshape(Q.shape)


@pytest.mark.parametrize(
    "s", [0.8, 1.0, 1.37], ids=["past-the-edge", "edge-nodes", "interior"]
)
def test_bilinear_matches_interpolator(s):
    g = PhaseSpaceGrid(-8, 8, -7, 7, 257, 193)
    W = wigner_from_fock(cat(1.5, "odd").to_density(), g).values
    q, p = g.q / s, g.p / s
    got = _bilinear(W, g, q, p)
    want = interpolator_oracle(W, g, q, p)
    assert np.max(np.abs(got - want)) <= 4 * np.spacing(np.max(np.abs(W)))
    if s < 1.0:
        # points past the edge read 0, like the interpolator's fill value
        off = np.abs(q)[:, None] > 8.0
        off = off | (np.abs(p)[None, :] > 7.0)
        assert off.any() and np.all(got[off] == 0.0) and np.all(want[off] == 0.0)
    if s == 1.0:
        # on the nodes themselves, edges included, the samples are exact
        assert np.array_equal(got, W)


def test_phase_space_identity_at_unit_tau():
    f = wigner_from_fock(fock_density(1), points=257)
    out = thermal_loss_phase_space(f, ThermalLossSpec(1.0, 0.7))
    assert np.max(np.abs(out.values - f.values)) < 1e-12


def test_phase_space_near_identity():
    f = wigner_from_fock(fock_density(1), points=257)
    out = thermal_loss_phase_space(f, ThermalLossSpec(0.999, 0.0))
    assert np.max(np.abs(out.values - f.values)) < 2e-3


def test_phase_space_vacuum_covariance_update():
    tau, n_bar = 0.5, 1.0
    f = wigner_from_fock(fock_density(0), points=513)
    out = thermal_loss_phase_space(f, ThermalLossSpec(tau, n_bar))
    want = (tau * 0.5 + (1 - tau) * (n_bar + 0.5)) * np.eye(2)
    assert np.allclose(moments(out).V, want, atol=1e-4)


def test_phase_space_mass_lost_off_the_grid_raises():
    # n_bar = 20 at tau = 0.05 spreads the cat past its default grid,
    # which keeps 82% of the mass
    f = wigner_from_fock(cat(1.5).to_density())
    with pytest.raises(TruncationRiskError, match="--extent-sigmas") as err:
        thermal_loss_phase_space(f, ThermalLossSpec(0.05, 20.0))
    assert 0.17 < err.value.magnitude < 0.19


def test_cross_engine_pointwise():
    spec = ThermalLossSpec(0.7, 0.001)
    f = wigner_from_fock(fock_density(1), points=513)
    via_phase = thermal_loss_phase_space(f, spec)
    via_fock = wigner_from_fock(thermal_loss_fock(fock_density(1), spec), f.grid)
    assert np.max(np.abs(via_phase.values - via_fock.values)) < 5e-4


# ------------------------------------------------------ measure properties


@pytest.mark.parametrize("state", [fock_density(1), cat(1.5, "even")])
@pytest.mark.parametrize("tau,n_bar", [(0.5, 0.1), (0.9, 0.001)])
def test_engine_equivalence_on_measure(state, tau, n_bar):
    spec = ThermalLossSpec(tau, n_bar)
    rho = state if isinstance(state, FockDensityMatrix) else state.to_density()
    fock_out = ngm(thermal_loss_fock(rho, spec))
    field = wigner_from_fock(rho)
    phase_out = measure_from_field(thermal_loss_phase_space(field, spec))
    assert fock_out.re_mu == pytest.approx(phase_out.re_mu, abs=2e-3)
    assert fock_out.im_mu == pytest.approx(phase_out.im_mu, abs=2e-3)


def test_measure_monotone_along_loss():
    rho = fock_density(1)
    taus = [1.0, 0.7, 0.4, 0.1]
    values = [ngm(thermal_loss_fock(rho, ThermalLossSpec(t, 0.001))) for t in taus]
    for earlier, later in zip(values, values[1:]):
        assert later.re_mu <= earlier.re_mu + 1e-3
        assert later.im_mu <= earlier.im_mu + 1e-3


def test_qudit_negative_volume_monotone():
    rho = random_qudit(3, seed=5)
    spec = ThermalLossSpec(0.6, 0.05)
    assert ngm(thermal_loss_fock(rho, spec)).im_mu <= ngm(rho).im_mu + 1e-3


@pytest.mark.parametrize("s", [0.8, 1.25])
def test_rescaling_invariance_of_measure(s):
    field = wigner_from_fock(cat(1.5, "even").to_density())
    base = measure_from_field(field)
    moved = measure_from_field(rescale(field, s))
    assert moved.re_mu == pytest.approx(base.re_mu, abs=2e-3)
    assert moved.im_mu == pytest.approx(base.im_mu, abs=2e-3)


@pytest.mark.parametrize("s", [0.8, 1.25])
def test_rescaling_entropy_shift(s):
    field = wigner_from_fock(cat(1.5, "even").to_density())
    shift = wigner_entropy_real(rescale(field, s)) - wigner_entropy_real(field)
    assert shift == pytest.approx(np.log(s**2), abs=2e-3)

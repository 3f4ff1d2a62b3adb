"""Channel engines: Kraus sums, phase-space rescale/convolve, cross-checks.

Closed-form anchors: single-photon loss at eta=0.5 splits {0.5, 0.5};
vacuum acquires mean photon number (1-tau) n_bar under thermal loss and
G-1 under amplification; rescaling preserves mass, scales covariance by
s^2, and shifts the entropy by ln s^2.
"""

import warnings

import numpy as np
import pytest

from ngm import channels, wigner
from ngm.errors import (
    CapacityError,
    ConsistencyError,
    NormalizationError,
    NumericalError,
    TruncationRiskError,
)
from ngm.fock import (
    FockDensityMatrix,
    FockVector,
    as_density,
    cat,
    random_qudit,
    state_moments,
    trim_density,
)
from ngm.channels import (
    KRAUS_ORDER_FLOOR,
    TRACE_DEFICIT_TOL,
    ThermalLossSpec,
    thermal_loss_fock,
    thermal_loss_phase_space,
)
from ngm.catalog import preset_random_qudits
from ngm.measure import measure_from_field, ngm, wigner_entropy_real
from ngm.wigner import WignerField, default_grid, moments, wigner_from_fock
from ngm.numerics import PhaseSpaceGrid, _log_factorial, integrate


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
    """The pure-loss operators of orders 0..l_max as dense matrices, from
    the rows of the library's table (row l, column n: |n - l><n|)."""
    rows = channels._loss_table(eta, dim)[: l_max + 1]
    return [np.diag(v[l:], l) for l, v in enumerate(rows)]


def amplifier_matrices(gain, k_max, dim):
    """The amplifier operators of orders 0..k_max <= dim on dim levels as
    dense matrices, from the rows of the library's table (row k, column m:
    |m + k><m|)."""
    rows = channels._amplifier_table(gain, k_max + 1, dim)
    return [np.diag(v[: dim - k], -k) for k, v in enumerate(rows)]


def test_pure_loss_identity_at_unit_eta(monkeypatch):
    # eta = 1 only at tau = 1 (the gain is then 1), and there the engine
    # returns its input before building any table, whose closed form
    # would read 0 ln 0
    def no_tables(*args):
        raise AssertionError("Kraus table built at unit transmissivity")

    monkeypatch.setattr(channels, "_loss_table", no_tables)
    monkeypatch.setattr(channels, "_amplifier_table", no_tables)
    rho = cat(1.5, "even").to_density()
    for n_bar in (0.0, 0.3, 1e30):
        spec = ThermalLossSpec(1.0, n_bar)
        assert spec.eta == 1.0
        assert thermal_loss_fock(rho, spec) is rho


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


STRONG_NOISE = ThermalLossSpec(0.05, 20.0)

# the library's table builders and sum, for spies that wrap them
loss_table = channels._loss_table
amplifier_table = channels._amplifier_table
kraus_sum = channels._kraus_sum


@pytest.mark.parametrize("tau", [1.0, 0.5])
def test_non_finite_density_raises_at_every_tau(tau):
    # tau = 1 once returned its input before the check, NaN and all
    c = cat(1.5).to_density().entries.copy()
    c[2, 3] = np.nan
    with pytest.raises(NumericalError, match="density matrix has non-finite"):
        thermal_loss_fock(FockDensityMatrix(c), ThermalLossSpec(tau, 0.0))


def negative_population():
    """A dim-40 "state" of trace 1 with population -1e9 + 1 at |3>."""
    pop = np.zeros(40)
    pop[1], pop[3] = 1e9, 1.0 - 1e9
    return np.diag(pop)


@pytest.mark.parametrize("tau", [1.0, 0.37])
def test_negative_population_raises(tau):
    # the negative population once cancelled the trace, and the renormalised,
    # trimmed output was the vacuum [[1]]
    with pytest.raises(NormalizationError, match="minimum eigenvalue"):
        thermal_loss_fock(FockDensityMatrix(negative_population()), ThermalLossSpec(tau, 0.0))


@pytest.mark.parametrize("tau", [1.0, 0.5])
def test_indefinite_input_raises(tau):
    # eigenvalues 1.4 and -0.4; the output once kept an eigenvalue -0.18
    bad = FockDensityMatrix(np.array([[0.5, 0.9], [0.9, 0.5]]))
    with pytest.raises(NormalizationError, match="minimum eigenvalue"):
        thermal_loss_fock(bad, ThermalLossSpec(tau, 0.0))


@pytest.mark.parametrize("tau", [1.0, 0.5])
def test_trace_off_one_raises(tau):
    # the output was once silently renormalised to trace 1
    with pytest.raises(NormalizationError, match="trace 2.0 deviates"):
        thermal_loss_fock(FockDensityMatrix(np.diag([2.0, 0.0])), ThermalLossSpec(tau, 0.0))


def test_truncation_deficit_reported(monkeypatch):
    # thermal noise spreads the output far past the floor orders (30 / 30):
    # held there, the sums miss a fifth of the trace and say so
    rho = cat(1.5, n_c=40).to_density()
    monkeypatch.setattr(channels, "_kept", lambda amps, pop, floor: amps[: floor + 1])
    with pytest.raises(TruncationRiskError) as got:
        thermal_loss_fock(rho, STRONG_NOISE)
    assert "trace 0.79435543" in str(got.value)
    # the same message and magnitude as the dense route
    with pytest.raises(TruncationRiskError) as want:
        dense_thermal_loss(rho, STRONG_NOISE)
    assert str(got.value) == str(want.value)
    assert got.value.magnitude == want.value.magnitude


def amplifier_order_by_recurrence(q, gain):
    """max(30, least k keeping all but half the tolerance of q), from the
    negative-binomial pmf's recurrence p_m(k) = p_m(k - 1) (1 - 1/G) (m + k) / k."""
    x, m = 1.0 - 1.0 / gain, np.arange(q.size)
    pmf = gain ** -(m + 1.0)
    kept, k = q @ pmf, 0
    while q.sum() - kept > 0.5 * TRACE_DEFICIT_TOL:
        k += 1
        pmf = pmf * x * (m + k) / k
        kept += q @ pmf
    return max(KRAUS_ORDER_FLOOR, k)


def amplifier_order(q, gain):
    """The amplifier order the library takes for populations q."""
    return len(channels._amplifier_rows(q, gain)) - 1


def test_strong_noise_orders_from_closed_form_tails(monkeypatch):
    # the amplifier (gain 20) needs far more than 30 orders: the closed-form
    # negative-binomial shares of its 1025-row table size it, after the
    # 31-row table falls short, and the sums keep the trace
    rho = cat(1.5, n_c=40).to_density()
    q = np.diagonal(dense_loss(rho, STRONG_NOISE)[0]).real
    builds = []

    def spy(gain, rows, dim):
        builds.append(rows)
        return amplifier_table(gain, rows, dim)

    monkeypatch.setattr(channels, "_amplifier_table", spy)
    k_max = amplifier_order(q, STRONG_NOISE.gain)
    assert builds == [KRAUS_ORDER_FLOOR + 1, 1025]
    assert 250 < k_max < 300
    assert k_max == amplifier_order_by_recurrence(q, STRONG_NOISE.gain)
    out = thermal_loss_fock(rho, STRONG_NOISE)
    assert abs(np.trace(out.entries).real - 1.0) < 1e-12
    assert number_expectation(out) == pytest.approx(
        0.05 * number_expectation(rho) + 0.95 * 20.0, rel=1e-5)


@pytest.mark.parametrize("seed", range(4))
def test_amplifier_order_matches_the_pmf_recurrence(seed):
    # weak noise, where the 31-row table holds the order, and strong noise,
    # where the 1025-row table does; at gain 1 the floor holds exactly
    rng = np.random.default_rng(seed)
    for _ in range(50):
        q = rng.dirichlet(np.ones(int(rng.integers(1, 60))))
        gain = 1.0 + 10.0 ** rng.uniform(-4.0, 1.0)
        assert amplifier_order(q, gain) == amplifier_order_by_recurrence(q, gain)
    assert amplifier_order(q, 1.0) == amplifier_order_by_recurrence(q, 1.0) == KRAUS_ORDER_FLOOR


def test_amplifier_order_past_the_ceiling_raises_before_any_sum(monkeypatch):
    # the 1025-row table is built and falls short: the loss sum has run,
    # no amplifier sum does
    ups = []

    def spy(c, amps, up):
        ups.append(up)
        return kraus_sum(c, amps, up)

    monkeypatch.setattr(channels, "_kraus_sum", spy)
    with pytest.raises(CapacityError, match="1024 Kraus orders"):
        thermal_loss_fock(cat(1.5, n_c=40).to_density(), ThermalLossSpec(0.5, 1e4))
    assert ups == [False]


# ln(n!) for n = 0..256, the fixed table the Kraus builders once indexed
FIXED_LOG_FACTORIAL = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, 257.0)))))


def fixed_log_factorial(n):
    """ln(k!) for k = 0..n: the fixed table, extended past 256 by the
    library's own, which it matches where both reach."""
    return FIXED_LOG_FACTORIAL if n <= 256 else _log_factorial(n)


def loss_operators(eta, l_max, dim):
    """The pure-loss operators of orders 0..l_max on dim levels, element
    for element as the builders computed them while they indexed the
    fixed table."""
    lf = fixed_log_factorial(dim)
    ops = []
    for l in range(l_max + 1):
        A = np.zeros((dim, dim))
        ns = np.arange(l, dim)
        A[ns - l, ns] = np.exp(0.5 * (
            l * np.log(1.0 - eta) - lf[l] + (ns - l) * np.log(eta) + lf[ns] - lf[ns - l]
        ))
        ops.append(A)
    return ops


def amplifier_operators(gain, k_max, dim):
    """The amplifier operators of orders 0..k_max on dim levels, likewise;
    at gain 1 the identity and zeros, where the closed form reads 0 ln 0."""
    if gain == 1.0:
        return [np.eye(dim)] + [np.zeros((dim, dim))] * k_max
    lf = fixed_log_factorial(dim)
    ops = []
    for k in range(k_max + 1):
        B = np.zeros((dim, dim))
        ns = np.arange(0, dim - k)
        B[ns + k, ns] = np.exp(0.5 * (
            k * np.log((gain - 1.0) / gain) - lf[k] - np.log(gain)
            + lf[ns + k] - lf[ns] - ns * np.log(gain)
        ))
        ops.append(B)
    return ops


@pytest.mark.parametrize("dim", [2, 7, 61, 200])
def test_kraus_matrices_equal_fixed_table_bitwise(dim):
    # the floor orders; the loss table holds orders up to dim - 1
    order = min(dim - 1, KRAUS_ORDER_FLOOR)
    for got, want in zip(loss_matrices(0.37, order, dim),
                         loss_operators(0.37, order, dim), strict=True):
        assert np.array_equal(got, want)
    for got, want in zip(amplifier_matrices(1.2, order, dim),
                         amplifier_operators(1.2, order, dim), strict=True):
        assert np.array_equal(got, want)


def _kraus_apply(rho, ops):
    out = np.zeros_like(ops[0], dtype=complex)
    for op in ops:
        out += op @ rho @ op.conj().T
    return out


def dense_loss(rho, spec):
    """The loss piece as dense GEMMs of the test-side operators, at the
    order the library computes."""
    floor = min(rho.dim - 1, KRAUS_ORDER_FLOOR)
    rows = channels._kept(channels._loss_table(spec.eta, rho.dim),
                          np.diagonal(rho.entries).real, floor)
    l_max = len(rows) - 1
    return _kraus_apply(rho.entries, loss_operators(spec.eta, l_max, rho.dim)), l_max


def dense_thermal_loss(rho, spec):
    """thermal_loss_fock with each Kraus order applied as two dense GEMMs,
    op @ rho @ op^dag, of the test-side operators, the amplifier acting on
    rho zero-padded to the output dimension.  Same computed orders, same
    error."""
    if spec.tau == 1.0:
        return rho
    dim = rho.dim
    lost, l_max = dense_loss(rho, spec)
    k_max = amplifier_order(np.diagonal(lost).real, spec.gain)
    out_dim = dim + k_max
    mid = np.zeros((out_dim, out_dim), dtype=complex)
    mid[:dim, :dim] = lost
    out = _kraus_apply(mid, amplifier_operators(spec.gain, k_max, out_dim))
    trace = float(np.trace(out).real)
    if not trace >= 1.0 - TRACE_DEFICIT_TOL:
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


MIXED_LOSS = preset_random_qudits()


@pytest.mark.parametrize("d", range(1, 8))
def test_weak_noise_equals_dense_route_bitwise(d):
    # the benchmark's channel regime: qudits at n_bar = 1e-3 and each of
    # the preset's ten transmissivities, where the amplifier's 31-row
    # table holds its order
    rho = random_qudit(d, seed=d)
    for tau in MIXED_LOSS.loss_taus:
        spec = ThermalLossSpec(tau, MIXED_LOSS.loss_nbar)
        got = thermal_loss_fock(rho, spec)
        assert np.array_equal(got.entries, dense_thermal_loss(rho, spec).entries)


@pytest.mark.parametrize(
    "make,spec",
    [(lambda: cat(5.0, n_c=100).to_density(), ThermalLossSpec(0.1, 0.0)),
     (lambda: cat(1.5, n_c=40).to_density(), STRONG_NOISE)],
    ids=["loss", "amplifier"],
)
def test_orders_past_the_floor_equal_dense_route_bitwise(make, spec):
    # the computed order of one piece passes the floor of 30, and both
    # routes take it, with no warning
    rho = make()
    lost, l_max = dense_loss(rho, spec)
    k_max = amplifier_order(np.diagonal(lost).real, spec.gain)
    assert max(l_max, k_max) > KRAUS_ORDER_FLOOR
    got, got_warnings = recorded(thermal_loss_fock, rho, spec)
    want, want_warnings = recorded(dense_thermal_loss, rho, spec)
    assert np.array_equal(got, want)
    assert got_warnings == want_warnings == []


@pytest.mark.parametrize(
    "rho,tau",
    [(random_qudit(7, seed=0), 0.6), (cat(5.0, n_c=100).to_density(), 0.1)],
    ids=["one-pass", "past-the-floor"],
)
def test_one_pure_loss_build_per_kraus_pass(monkeypatch, rho, tau):
    # each order comes from the same table as its operators, so each
    # piece builds its table once, with no warning, even where the loss
    # order passes the floor
    builds = []

    def spy(build):
        def counted(*args):
            builds.append(build.__name__)
            return build(*args)
        return counted

    monkeypatch.setattr(channels, "_loss_table", spy(loss_table))
    monkeypatch.setattr(channels, "_amplifier_table", spy(amplifier_table))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        thermal_loss_fock(rho, ThermalLossSpec(tau, 0.0))
    assert builds == ["_loss_table", "_amplifier_table"]
    assert caught == []


@pytest.mark.parametrize("n_bar", [0.0, 0.1])
def test_thermal_loss_past_dim_257(n_bar):
    # the output space (dim + 30 levels) outgrows the old 257-entry table
    spec = ThermalLossSpec(0.5, n_bar)
    high = thermal_loss_fock(cat(1.0, n_c=300).to_density(), spec)
    low = thermal_loss_fock(cat(1.0, n_c=60).to_density(), spec)
    assert high.dim == low.dim
    assert np.max(np.abs(high.entries - low.entries)) <= 1e-12


# ----------------------------------------------------------------- rescale


def dilated(rho, s, grid):
    """(1/s^2) W(r/s) of rho on the grid, exactly: the table map (s^2, 0)."""
    expansion = wigner._expand(as_density(rho).entries)
    (values,), fold = wigner._fields(expansion, grid.q, grid.p, False, maps=((s * s, 0.0),) * 2)
    return WignerField(grid, wigner._unfolded(values, grid.shape, fold))


def test_rescale_identity():
    f = wigner_from_fock(fock_density(0), points=257)
    out = dilated(fock_density(0), 1.0, f.grid)
    assert np.max(np.abs(out.values - f.values)) < 1e-12


@pytest.mark.parametrize("s", [0.7, 1.3])
def test_rescale_mass(s):
    grid = default_grid(fock_density(0), points=257)
    out = dilated(fock_density(0), s, grid)
    assert integrate(out.values, grid) == pytest.approx(1.0, abs=1e-6)


def test_rescale_moments_scaling():
    # shrinking the vacuum gives a legitimate density below the
    # uncertainty bound, so its moments are read without that check
    s = np.sqrt(0.6)
    grid = default_grid(fock_density(0), points=513)
    m = wigner._quadrature(dilated(fock_density(0), s, grid))[0]
    # the exact dilation leaves only the quadrature's own error
    assert np.allclose(m.V, s**2 * 0.5 * np.eye(2), atol=1e-12)
    assert np.allclose(m.d, 0.0, atol=1e-15)


# ------------------------------------------------------ phase-space engine


def output_grid(rho, spec, points=513):
    """The grid for the channel output's moments (sqrt(tau) d, tau V + s^2 I)."""
    mean, cov = state_moments(rho)
    noise = (1.0 - spec.tau) * (spec.n_bar + 0.5)
    return PhaseSpaceGrid.for_moments(np.sqrt(spec.tau) * mean,
                                      spec.tau * cov + noise * np.eye(2), points=points)


def lossy_qudit():
    return thermal_loss_fock(random_qudit(5, seed=3), ThermalLossSpec(0.7, 0.01))


@pytest.mark.parametrize("tau,n_bar", [(0.7, 0.0), (0.3, 3.0)])
@pytest.mark.parametrize("make", [lambda: cat(1.5).to_density(), lossy_qudit],
                         ids=["cat", "lossy-qudit"])
def test_output_moments_match_the_kraus_output(monkeypatch, make, tau, n_bar):
    # at the default deficit (1e-6 of the trace, dropped at n ~ 50) the
    # Kraus output's covariance is off by 3.3e-5 at n_bar = 3
    monkeypatch.setattr(channels, "TRACE_DEFICIT_TOL", 1e-13)
    rho = make()
    spec = ThermalLossSpec(tau, n_bar)
    mean, cov = spec.output_moments(*state_moments(rho))
    want_mean, want_cov = state_moments(thermal_loss_fock(rho, spec))
    assert np.max(np.abs(mean - want_mean)) < 1e-8
    assert np.max(np.abs(cov - want_cov)) < 1e-8


def test_phase_space_rejects_an_anti_hermitian_input():
    # the engine once synthesized the Hermitian part alone and returned
    # mu = 0.383 + 0.084i for this input, which both other routes reject
    c = cat(1.5).to_density().entries
    x = np.random.default_rng(0).standard_normal(c.shape)
    bad = FockDensityMatrix(c + 1e-3 * (x - x.T))
    spec = ThermalLossSpec(0.5, 0.0)
    grid = output_grid(cat(1.5).to_density(), spec)
    with pytest.raises(ConsistencyError, match="phase-space channel output"):
        thermal_loss_phase_space(bad, spec, grid)
    with pytest.raises(ConsistencyError):
        wigner_from_fock(bad)
    with pytest.raises(ConsistencyError):
        ngm(thermal_loss_fock(bad, spec))


def invalid_inputs(c):
    """Trace 2, trace 1.00005, and trace 1 with least eigenvalue -0.2 (a
    cat has no |1> part to cancel it)."""
    indefinite = 1.2 * c
    indefinite[1, 1] -= 0.2
    return {"trace-2": 2.0 * c, "trace-1.00005": 1.00005 * c, "indefinite": indefinite}


@pytest.mark.parametrize("name, message", [("trace-2", "deviates from 1"),
                                           ("trace-1.00005", "deviates from 1"),
                                           ("indefinite", "minimum eigenvalue -2.00e-01")])
def test_phase_space_validates_its_input_as_the_kraus_engine_does(name, message):
    # the phase-space engine once blamed the trace-2 input on a coarse grid,
    # renormalised the 1.00005 one and ran the indefinite one
    rho = cat(1.5, n_c=30).to_density()
    spec = ThermalLossSpec(0.7, 0.0)
    bad = FockDensityMatrix(invalid_inputs(rho.entries)[name])
    grid = output_grid(rho, spec, points=257)
    with pytest.raises(NormalizationError, match=message):
        thermal_loss_fock(bad, spec)
    with pytest.raises(NormalizationError, match=message):
        thermal_loss_phase_space(bad, spec, grid)


def test_phase_space_rejects_a_non_finite_input_first():
    c = 2.0 * cat(1.5, n_c=30).to_density().entries
    c[2, 3] = np.nan
    spec = ThermalLossSpec(0.7, 0.0)
    with pytest.raises(NumericalError, match="density matrix has non-finite") as err:
        thermal_loss_phase_space(FockDensityMatrix(c), spec, output_grid(cat(1.5), spec))
    assert type(err.value) is NumericalError


def test_phase_space_identity_at_unit_tau():
    f = wigner_from_fock(fock_density(1), points=257)
    out = thermal_loss_phase_space(fock_density(1), ThermalLossSpec(1.0, 0.7), f.grid)
    assert np.max(np.abs(out.values - f.values)) < 1e-12


def test_phase_space_near_identity():
    f = wigner_from_fock(fock_density(1), points=257)
    out = thermal_loss_phase_space(fock_density(1), ThermalLossSpec(0.999, 0.0), f.grid)
    assert np.max(np.abs(out.values - f.values)) < 2e-3


def test_phase_space_vacuum_covariance_update():
    tau, n_bar = 0.5, 1.0
    f = wigner_from_fock(fock_density(0), points=513)
    out = thermal_loss_phase_space(fock_density(0), ThermalLossSpec(tau, n_bar), f.grid)
    want = (tau * 0.5 + (1 - tau) * (n_bar + 0.5)) * np.eye(2)
    assert np.allclose(moments(out).V, want, atol=1e-4)


def test_phase_space_mass_lost_off_the_grid_raises():
    # n_bar = 20 at tau = 0.05 spreads the cat past its default grid,
    # which keeps 82% of the mass
    rho = cat(1.5).to_density()
    with pytest.raises(TruncationRiskError, match="--extent-sigmas") as err:
        thermal_loss_phase_space(rho, STRONG_NOISE, default_grid(rho))
    assert 0.17 < err.value.magnitude < 0.19


def test_cross_engine_pointwise():
    spec = ThermalLossSpec(0.7, 0.001)
    f = wigner_from_fock(fock_density(1), points=513)
    via_phase = thermal_loss_phase_space(fock_density(1), spec, f.grid)
    via_fock = wigner_from_fock(thermal_loss_fock(fock_density(1), spec), f.grid)
    assert np.max(np.abs(via_phase.values - via_fock.values)) < 5e-4


@pytest.mark.parametrize("state", ["one-photon", "cat", "qudit"])
@pytest.mark.parametrize("tau,n_bar", [(0.9, 0.0), (0.5, 0.5), (0.2, 0.1), (0.05, 20.0)])
def test_cross_engine_pointwise_exact(state, tau, n_bar):
    # both engines are exact up to the Kraus trace tolerance: the output
    # fields agree point for point on the output's own grid
    rho = {"one-photon": lambda: fock_density(1),
           "cat": lambda: cat(1.5, "odd", n_c=40).to_density(),
           "qudit": lambda: random_qudit(4, seed=9)}[state]()
    spec = ThermalLossSpec(tau, n_bar)
    grid = output_grid(rho, spec)
    via_phase = thermal_loss_phase_space(rho, spec, grid)
    via_fock = wigner_from_fock(thermal_loss_fock(rho, spec), grid)
    assert np.max(np.abs(via_phase.values - via_fock.values)) < 1e-6


# ------------------------------------------------------ measure properties


@pytest.mark.parametrize("state", [fock_density(1), cat(1.5, "even")])
@pytest.mark.parametrize("tau,n_bar", [(0.5, 0.1), (0.9, 0.001)])
def test_engine_equivalence_on_measure(state, tau, n_bar):
    spec = ThermalLossSpec(tau, n_bar)
    rho = state if isinstance(state, FockDensityMatrix) else state.to_density()
    fock_out = ngm(thermal_loss_fock(rho, spec))
    phase_out = measure_from_field(thermal_loss_phase_space(rho, spec, default_grid(rho)))
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
    rho = cat(1.5, "even").to_density()
    field = wigner_from_fock(rho)
    base = measure_from_field(field)
    moved = measure_from_field(dilated(rho, s, field.grid))
    assert moved.re_mu == pytest.approx(base.re_mu, abs=2e-3)
    assert moved.im_mu == pytest.approx(base.im_mu, abs=2e-3)


@pytest.mark.parametrize("s", [0.8, 1.25])
def test_rescaling_entropy_shift(s):
    rho = cat(1.5, "even").to_density()
    field = wigner_from_fock(rho)
    shift = wigner_entropy_real(dilated(rho, s, field.grid)) - wigner_entropy_real(field)
    assert shift == pytest.approx(np.log(s**2), abs=2e-3)

"""State-construction contracts.

Oracles: closed-form coherent overlaps, squeezed-vacuum variances,
Gaussian-unitary action on moments, direct matrix exponentials, and the
closed-form Laguerre displacement slab applied to the squeezed vacuum,
all independent of the three-term recurrence the states are built by.
"""

import numpy as np
import pytest
from mpmath import mp
from expm_unitaries import (
    annihilation_matrix,
    displace_state,
    embed,
    gaussian_unitary,
    squeeze_state,
)

from ngm.errors import CutoffError, NormalizationError
from ngm.fock import (
    FockDensityMatrix,
    FockVector,
    _displaced_squeezed_rows,
    _haar_from_rng,
    apply_qubit_state,
    as_density,
    cat,
    coherent,
    displaced_squeezed,
    fidelity,
    gkp_logical,
    load_state,
    qubit_rotation,
    random_qudit,
    save_state,
    state_from_json,
    state_moments,
    state_to_json,
    trim_density,
)
from ngm.numerics import _log_factorial


def number_mean(vec):
    n = np.arange(vec.dim)
    return float(np.sum(n * np.abs(vec.amplitudes) ** 2))


# ---------------------------------------------------------------- operators


def test_annihilation_small_dims():
    assert np.array_equal(annihilation_matrix(2), [[0, 1], [0, 0]])
    assert annihilation_matrix(3)[1, 2] == pytest.approx(np.sqrt(2))
    a = annihilation_matrix(5)
    assert np.allclose(a.conj().T @ a, np.diag([0, 1, 2, 3, 4]))
    with pytest.raises(ValueError):
        annihilation_matrix(1)


# ------------------------------------------------------------------- states


def test_coherent_vacuum_and_mean():
    v = coherent(0.0, 40)
    assert v.amplitudes[0] == 1.0 and np.all(v.amplitudes[1:] == 0.0)
    assert number_mean(coherent(1.0, 40)) == pytest.approx(1.0, abs=1e-8)


def test_coherent_overlap_oracle():
    got = abs(coherent(2.0, 40).overlap(coherent(-2.0, 40)))
    assert got == pytest.approx(np.exp(-8.0), abs=1e-9)


def test_coherent_leakage_guard():
    with pytest.raises(CutoffError):
        coherent(4.0, 10)


@pytest.mark.parametrize("make", [coherent, cat])
@pytest.mark.parametrize("alpha", [np.inf, -np.inf, np.nan])
def test_coherent_and_cat_reject_non_finite_alpha(make, alpha):
    # cat(inf) warned "invalid value", cat(nan) failed only at normalisation
    with pytest.raises(ValueError, match="finite"):
        make(alpha)
    with pytest.raises(ValueError, match="finite"):
        coherent(complex(0.0, alpha))


@pytest.mark.parametrize("make", [coherent, cat])
@pytest.mark.parametrize("alpha", [1e200, -1e200])
def test_alpha_with_its_mass_past_the_cutoff_is_a_cutoff_error(make, alpha):
    # alpha**2 overflowed to a bare OverflowError
    with pytest.raises(CutoffError):
        make(alpha)


def test_cat_endpoints_and_parity():
    even0 = cat(0.0, "even", 40)
    assert even0.amplitudes[0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        cat(0.0, "odd", 40)
    near1 = cat(1e-3, "odd", 40)
    assert abs(near1.amplitudes[1]) == pytest.approx(1.0, abs=1e-5)
    even2 = cat(2.0, "even", 40)
    assert np.max(np.abs(even2.amplitudes[1::2])) < 1e-14
    odd2 = cat(2.0, "odd", 40)
    assert np.max(np.abs(odd2.amplitudes[0::2])) < 1e-14


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("alpha", [1.5, -1.5, 2.0])
def test_cat_parity_is_exact(alpha, parity):
    # the cancelled parity is 0.0, not rounding, and a real alpha gives
    # real amplitudes: the cat's mean and V_qp vanish exactly
    amp = cat(alpha, parity, 40).amplitudes
    assert np.all(amp[1 if parity == "even" else 0 :: 2] == 0.0)
    assert np.all(amp.imag == 0.0)
    mean, cov = state_moments(cat(alpha, parity, 40))
    assert np.all(mean == 0.0) and cov[0, 1] == 0.0


def test_cat_matches_closed_form_normalization():
    alpha = 1.5
    v = cat(alpha, "even", 40)
    raw = coherent(alpha, 40).amplitudes + coherent(-alpha, 40).amplitudes
    want = raw / np.sqrt(2 * (1 + np.exp(-2 * alpha**2)))
    assert np.max(np.abs(v.amplitudes - want)) < 1e-10


def test_cat_checks_its_cutoff_as_coherent_does():
    # cat once built 42 levels at 40.7, raised a leakage CutoffError below
    # 1 and a TypeError on a numeric string
    assert cat(1.0, n_c=40.7).dim == coherent(1.0, n_c=40.7).dim == 41
    with pytest.raises(ValueError, match="n_c"):
        cat(1.0, n_c=-3)
    assert np.array_equal(cat(1.0, n_c="12").amplitudes, cat(1.0, n_c=12).amplitudes)


def test_displaced_squeezed_identity_and_coherent_limits():
    v = displaced_squeezed(0.0, 0.0, 40)
    assert v.amplitudes[0] == pytest.approx(1.0)
    d = displaced_squeezed(1.0, 0.0, 40)
    assert np.max(np.abs(d.amplitudes - coherent(1.0, 40).amplitudes)) < 1e-8


def test_squeezed_vacuum_variance_oracle():
    # sign convention: positive xi squeezes Var q below the vacuum 1/2
    xi = np.log(2.0)
    _, v = state_moments(displaced_squeezed(0.0, xi, 60))
    assert v[0, 0] == pytest.approx(0.5 * np.exp(-2 * xi), abs=1e-4)
    assert v[1, 1] == pytest.approx(0.5 * np.exp(2 * xi), abs=1e-4)
    assert abs(v[0, 1]) < 1e-10


def test_displaced_squeezed_moments_oracle():
    alpha, xi = 1.0 + 0.5j, 0.3
    mean, v = state_moments(displaced_squeezed(alpha, xi, 40))
    assert mean == pytest.approx(np.sqrt(2) * np.array([1.0, 0.5]), abs=1e-8)
    assert v[0, 0] == pytest.approx(0.5 * np.exp(-0.6), abs=1e-8)
    assert v[1, 1] == pytest.approx(0.5 * np.exp(0.6), abs=1e-8)


def test_displaced_squeezed_cutoff_guard():
    with pytest.raises(CutoffError):
        displaced_squeezed(5.0, 0.0, 8)


def test_projection_route_matches_expm_route():
    # recurrence amplitudes vs truncated matrix exponentials; build space
    # 400: strong squeezing has slow Fock tails and a smaller exponential
    # reference is itself under-truncated
    for alpha, xi in [(1.3, 0.4), (-0.7, -0.5), (2.0, 1.0), (-3.5446, 1.6), (1.2 - 0.8j, 0.7)]:
        rows = _displaced_squeezed_rows(alpha, xi, 50)
        psi = gaussian_unitary(400, alpha=alpha, xi=xi)[:, 0]
        assert rows.shape == (1, 51)
        assert np.max(np.abs(rows[0] - psi[:51])) < 1e-14, (alpha, xi)


def test_projection_far_outside_cutoff_is_negligible():
    # |alpha|^2 >> n_c: the honest projection is ~0, not a unitary artifact
    rows = _displaced_squeezed_rows(8 * np.sqrt(np.pi), 1.6, 60)
    assert np.linalg.norm(rows) < 1e-9


def test_recurrence_matches_slab_oracle():
    rng = np.random.default_rng(20)
    for _ in range(24):
        alpha = complex(*rng.uniform(-3.0, 3.0, 2))
        xi = rng.uniform(-1.0, 1.6)
        n_c = int(rng.choice([1, 2, 17, 40, 60, 100]))
        want = slab_projection(alpha, xi, n_c)
        got = _displaced_squeezed_rows(alpha, xi, n_c)
        assert np.max(np.abs(got[0] - want)) < 1e-14, (alpha, xi, n_c)
    # a 10 dB lattice, all sites in one array: |alpha|^2 reaches 1257 at
    # s = 20, far past where exp(-|alpha|^2/2) underflows (745)
    xi = np.log(10.0) / 2
    sites = np.arange(-20, 21)
    rows = _displaced_squeezed_rows(sites * np.sqrt(np.pi), xi, 60)
    assert rows.shape == (41, 61) and np.all(np.isfinite(rows))
    for s, row in zip(sites, rows):
        assert np.max(np.abs(row - slab_projection(s * np.sqrt(np.pi), xi, 60))) < 1e-14, s
    assert np.all(rows[sites == 20] == 0.0)


def recurrence_reference(alpha, xi, n_c):
    """The same recurrence at 60 digits, where c_0 cannot underflow."""
    with mp.workdps(60):
        a, xi = mp.mpc(alpha), mp.mpf(xi)
        t = mp.tanh(xi)
        beta = a + t * mp.conj(a)
        c = [mp.exp(-abs(a) ** 2 / 2 - t * mp.conj(a) ** 2 / 2) / mp.sqrt(mp.cosh(xi))]
        c.append(beta * c[0])
        for n in range(1, n_c):
            c.append((beta * c[n] - t * mp.sqrt(n) * c[n - 1]) / mp.sqrt(n + 1))
        return np.array([complex(x) for x in c])


@pytest.mark.parametrize("s", [8, 14])
def test_recurrence_keeps_far_site_amplitudes(s):
    # at s = 14 (10 dB) c_0 ~ 1e-243 is below the double range, while the
    # amplitudes near n_c are ~1e-185: the carried exponent keeps every
    # one of them to relative accuracy, where the slab keeps only 1e-18
    # absolute
    alpha, xi = s * np.sqrt(np.pi), np.log(10.0) / 2
    got = _displaced_squeezed_rows(alpha, xi, 60)[0]
    want = recurrence_reference(alpha, xi, 60)
    assert np.all(want != 0.0) and np.max(np.abs(want)) < 1e-30
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13


@pytest.mark.parametrize("alpha, xi", [(40.0, 0.0), (30 + 25j, 0.3)])
def test_recurrence_reaches_peaks_past_an_underflowing_seed(alpha, xi):
    # c_0 ~ 1e-348 underflows while the amplitudes near n = |alpha|^2 are
    # ~0.1: only an exponent refreshed along the recurrence spans that
    got = _displaced_squeezed_rows(alpha, xi, 2000)[0]
    want = recurrence_reference(alpha, xi, 2000)
    assert want[0] == 0.0 and np.max(np.abs(want)) > 0.05
    assert np.max(np.abs(got - want)) < 1e-13


def test_recurrence_complex_alpha_matches_reference():
    for alpha, xi in [(0.9 - 1.7j, -0.8), (-2.5 + 0.4j, 1.2)]:
        got = _displaced_squeezed_rows(alpha, xi, 30)[0]
        want = recurrence_reference(alpha, xi, 30)
        assert np.max(np.abs(got - want)) < 1e-14


def test_recurrence_extreme_parameters_stay_finite():
    # cosh xi overflows at xi = 800, and log2 c_0 leaves the integer
    # range at |alpha| = 1e10: both give honest zeros, no warning, and
    # the cutoff guard fires; at alpha = 5e-21 the mantissas go
    # subnormal within one block
    for alpha, xi in [(0.0, 800.0), (1e10, 0.0), (1e10j, -0.5)]:
        rows = _displaced_squeezed_rows(alpha, xi, 40)
        assert np.all(np.isfinite(rows)) and np.linalg.norm(rows) < 1e-150
        with pytest.raises(CutoffError):
            displaced_squeezed(alpha, xi, 40)
    tiny = _displaced_squeezed_rows(5e-21, 0.0, 40)[0]
    assert np.max(np.abs(tiny - coherent(5e-21, 40).amplitudes)) < 1e-30


# ---------------------------------------------------------------------- gkp


def test_gkp_broad_limit_matches_paper_states():
    g0 = gkp_logical(0, 1.0, t_max=3, n_c=40)
    vac = coherent(0.0, 40)
    assert fidelity(g0, vac) > 0.99
    g1 = gkp_logical(1, 1.0, t_max=3, n_c=40)
    beta = np.sqrt(np.pi)
    ref = FockVector(
        coherent(beta, 40).amplitudes + coherent(-beta, 40).amplitudes, normalize=True
    )
    assert fidelity(g1, ref) > 0.99


def test_gkp_norm_symmetry_and_parity():
    g = gkp_logical(0, 0.5, n_c=60)
    assert np.linalg.norm(g.amplitudes) == pytest.approx(1.0, abs=1e-10)
    mean, _ = state_moments(g)
    assert abs(mean[0]) < 1e-8 and abs(mean[1]) < 1e-8
    # symmetric lattice makes both logicals parity-even states
    assert np.max(np.abs(g.amplitudes[1::2])) < 1e-12


@pytest.mark.parametrize("logical", [0, 1])
@pytest.mark.parametrize("db", [10, 12, 14])
def test_gkp_odd_entries_are_exactly_zero(logical, db):
    # the peaks at -s and s pair through 1 + (-1)^n, so the odd entries are
    # 0.0, not the rounding of a sum over the sites in order; the even ones
    # match that sum to rounding
    delta = 10 ** (-db / 20)
    g = gkp_logical(logical, delta, t_max=4, n_c=60).amplitudes
    assert np.all(g[1::2] == 0.0) and np.all(g[0::2] != 0.0)
    sites = 2 * np.arange(-4, 5 - logical) + logical
    rows = _displaced_squeezed_rows(sites * np.sqrt(np.pi), -np.log(delta), 60)
    summed = np.exp(-(np.pi / 2) * delta**2 * sites**2) @ rows
    assert np.max(np.abs(g - summed / np.linalg.norm(summed))) < 1e-15


def test_gkp_auto_lattice_range():
    g = gkp_logical(0, 1.0, n_c=40)  # t_max grows until weights drop below 1e-10
    assert fidelity(g, coherent(0.0, 40)) > 0.99
    with pytest.raises(ValueError):
        gkp_logical(2, 0.5)
    with pytest.raises(ValueError):
        gkp_logical(0, -0.1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_builders_reject_non_finite_parameters(bad):
    # a NaN delta used to pass `delta <= 0` and give an all-NaN state
    with pytest.raises(ValueError):
        gkp_logical(0, bad)
    with pytest.raises(ValueError):
        displaced_squeezed(bad, 0.3, 40)
    with pytest.raises(ValueError):
        displaced_squeezed(complex(1.0, bad), 0.3, 40)
    with pytest.raises(ValueError):
        displaced_squeezed(1.0, bad, 40)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_normalize_rejects_non_finite_norm_and_trace(bad):
    with pytest.raises(ValueError):
        FockVector([bad, 1.0], normalize=True)
    with pytest.raises(ValueError):
        FockVector([0.0, 0.0], normalize=True)
    with pytest.raises(ValueError):
        FockDensityMatrix(np.diag([bad, 1.0]), normalize=True)
    with pytest.raises(ValueError):
        FockDensityMatrix(np.diag([-1.0, 0.5]), normalize=True)


# ----------------------------------------------------- qubits, random states


def test_qubit_rotation_special_angles():
    assert np.allclose(qubit_rotation(0.0, 0.0), np.diag([1.0, -1.0]))
    x = qubit_rotation(np.pi, 0.0)
    assert np.allclose(x, [[0, 1], [1, 0]], atol=1e-15)
    u = qubit_rotation(1.1, 0.7)
    assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-14


def haar_unitary(d, seed):
    return _haar_from_rng(d, np.random.default_rng(seed))


def test_haar_unitary_contracts():
    assert abs(abs(haar_unitary(1, 3)[0, 0]) - 1.0) < 1e-14
    u = haar_unitary(4, 11)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
    assert np.array_equal(u, haar_unitary(4, 11))


def test_haar_marginal_monte_carlo():
    vals = [abs(haar_unitary(2, s)[0, 0]) ** 2 for s in range(1000)]
    assert np.mean(vals) == pytest.approx(0.5, abs=0.02)


def test_random_qudit_contracts():
    rho = random_qudit(3, [0, 1, 2], seed=7)
    rho.validate()
    assert np.array_equal(rho.entries, random_qudit(3, [0, 1, 2], seed=7).entries)
    pure = random_qudit(1, [3], seed=0)
    assert pure.entries[3, 3] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        random_qudit(2, [1, 1], seed=0)


def test_random_qudit_embedding_support():
    rho = random_qudit(3, [0, 2, 5], seed=5)
    assert rho.dim == 6
    assert abs(rho.entries[1, 1]) == 0.0 and abs(rho.entries[3, 3]) == 0.0
    rho.validate()


@pytest.mark.parametrize("make", [
    lambda: random_qudit(2, [-1, 1], seed=3),
    lambda: apply_qubit_state(0.9, 0.3, 0.0, logical_levels=(-1, 1)),
], ids=["random_qudit", "apply_qubit_state"])
def test_negative_fock_levels_raise(make):
    # numpy's negative indexing once wrote level -1 onto the top level,
    # leaving a dim-2 matrix of trace 0.497 (0.118 for the qubit)
    with pytest.raises(ValueError, match="non-negative"):
        make()


def test_apply_qubit_state_cases():
    rho = apply_qubit_state(1.0, 0.0, 0.0, (0, 1))
    assert rho.entries[0, 0] == pytest.approx(1.0)
    mixed = apply_qubit_state(0.5, 2.2, 0.4, (0, 1))
    ev = np.linalg.eigvalsh(mixed.entries)
    assert np.allclose(ev[-2:], [0.5, 0.5], atol=1e-12)
    flipped = apply_qubit_state(1.0, np.pi, 0.0, (0, 1))
    assert abs(flipped.entries[1, 1] - 1.0) < 1e-14
    # embedding keeps the stated diagonal when no rotation is applied
    emb = apply_qubit_state(0.3, 0.0, 0.0, (2, 5))
    assert emb.entries[2, 2] == pytest.approx(0.3)
    assert emb.entries[5, 5] == pytest.approx(0.7)


# ------------------------------------------------ Gaussian unitaries on rho


def test_displace_state_moves_mean_only():
    rho = coherent(0.0, 20).to_density()
    out = displace_state(rho, 0.8 - 0.3j)
    mean, v = state_moments(out)
    assert mean == pytest.approx(np.sqrt(2) * np.array([0.8, -0.3]), abs=1e-9)
    assert np.allclose(v, 0.5 * np.eye(2), atol=1e-9)


def test_squeeze_state_scales_covariance():
    rho = random_qudit(2, [0, 1], seed=3)
    _, v0 = state_moments(rho)
    _, v1 = state_moments(squeeze_state(rho, 0.4))
    s = np.diag([np.exp(-0.4), np.exp(0.4)])
    assert np.allclose(v1, s @ v0 @ s, atol=1e-8)


def operator_trace_moments(state):
    """(mean, cov) by dense operator traces on a dim + 2 embedding.

    Two levels of headroom make Tr(ρ q̂²) exact for the truncated state.
    """
    base = as_density(state)
    dim = base.dim + 2
    rho = embed(base, dim).entries
    a = annihilation_matrix(dim)
    q = (a + a.conj().T) / np.sqrt(2.0)
    p = (a - a.conj().T) / (1j * np.sqrt(2.0))
    dq = np.trace(q @ rho).real
    dp = np.trace(p @ rho).real
    vqq = np.trace(q @ q @ rho).real - dq**2
    vpp = np.trace(p @ p @ rho).real - dp**2
    vqp = 0.5 * np.trace((q @ p + p @ q) @ rho).real - dq * dp
    return np.array([dq, dp]), np.array([[vqq, vqp], [vqp, vpp]])


@pytest.mark.parametrize(
    "make",
    [
        lambda: FockVector([0.6, 0.8j]),
        lambda: FockVector([1.0]),
        lambda: cat(1.5, "odd", n_c=40),
        lambda: displaced_squeezed(2.0 * np.exp(0.7j), 1.0, 160),
        lambda: displaced_squeezed(1.3 - 0.4j, -0.3, 60),
        lambda: random_qudit(7, seed=3),
        lambda: gkp_logical(1, 0.3, n_c=60),
        # not Hermitian: the diagonals enter as the traces take them
        lambda: FockDensityMatrix(np.array([[0.5, 0.2 + 0.1j, 0.05], [0.3j, 0.3, -0.1], [0.0, 0.2, 0.2]])),
    ],
)
def test_state_moments_match_operator_traces(make):
    state = make()
    mean, cov = state_moments(state)
    want_mean, want_cov = operator_trace_moments(state)
    scale = 1.0 + np.max(np.abs(want_cov))
    assert np.max(np.abs(mean - want_mean)) <= 1e-14 * scale
    assert np.max(np.abs(cov - want_cov)) <= 1e-14 * scale


def test_state_moments_fock_oracle():
    for n in [0, 1, 4]:
        amp = np.zeros(n + 1)
        amp[n] = 1.0
        mean, v = state_moments(FockVector(amp))
        assert np.allclose(mean, 0.0, atol=1e-14)
        assert np.allclose(v, (n + 0.5) * np.eye(2), atol=1e-12)


# ------------------------------------------------- validation, serialization


def test_density_validation_catches_defects():
    good = FockDensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    good.validate()
    with pytest.raises(NormalizationError):
        FockDensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)).validate()
    with pytest.raises(NormalizationError):
        FockDensityMatrix(np.diag([0.7, 0.7]).astype(complex)).validate()
    with pytest.raises(NormalizationError):
        FockDensityMatrix(np.diag([1.5, -0.5]).astype(complex)).validate()


def test_trim_density_drops_quiet_levels():
    rho = embed(coherent(1.0, 12), 48)
    out = trim_density(rho)
    assert out.dim < 20
    assert out.entries[0, 0] == pytest.approx(rho.entries[0, 0].real, abs=1e-12)


def test_serialization_round_trips(tmp_path):
    v = cat(1.5, "even", 30)
    doc = state_to_json(v)
    back = state_from_json(doc)
    assert isinstance(back, FockVector)
    assert np.allclose(back.amplitudes, v.amplitudes)

    rho = random_qudit(3, [0, 1, 2], seed=9)
    path = tmp_path / "state.json"
    save_state(rho, path)
    loaded = load_state(path)
    assert isinstance(loaded, FockDensityMatrix)
    assert np.allclose(loaded.entries, rho.entries)


def test_serialization_rejects_mismatched_dim():
    with pytest.raises(ValueError):
        state_from_json({"dim": 3, "re": [1.0, 0.0], "im": [0.0, 0.0]})


def laguerre_sequence(k, x, n_max):
    """L_0^(k)(x) .. L_{n_max}^(k)(x) by the three-term recurrence in the degree,
    n L_n = (2n - 1 + k - x) L_{n-1} - (n - 1 + k) L_{n-2}."""
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    yield prev
    if n_max == 0:
        return
    cur = 1.0 + k - x
    yield cur
    for n in range(2, n_max + 1):
        prev, cur = cur, ((2 * n - 1 + k - x) * cur - (n - 1 + k) * prev) / n
        yield cur


def squeezed_vacuum_amplitudes(xi, n_max):
    """S(ξ)|0⟩ with S = exp((ξ/2)(â² − â†²)): closed-form even amplitudes."""
    amp = np.zeros(n_max + 1)
    t = np.tanh(xi)
    amp[0] = 1.0 / np.sqrt(np.cosh(xi))
    # c_{2m} = c_0 (-t)^m sqrt((2m)!)/(2^m m!), stable via the ratio
    # c_{2m}/c_{2m-2} = -t sqrt((2m-1)(2m)) / (2m)
    c = amp[0]
    for m in range(1, n_max // 2 + 1):
        c *= -t * np.sqrt((2 * m - 1) * (2 * m)) / (2 * m)
        amp[2 * m] = c
    return amp


def displacement_slab(alpha, rows, cols):
    """⟨m|D(α)|n⟩ for m < rows, n < cols, via closed-form Laguerre elements.

    Exact projection of the displacement onto a truncated basis; safe for
    |α|² far above the row cutoff, where a truncated-space exponential
    would silently rotate weight back into the kept levels.
    """
    a2 = abs(alpha) ** 2
    if a2 == 0.0:
        return np.eye(rows, cols, dtype=complex)
    lf = _log_factorial(rows + cols)
    loga = np.log(abs(alpha))
    up = -np.conj(alpha) / abs(alpha)  # unit-modulus phase factors only:
    dn = alpha / abs(alpha)            # magnitudes live in the log prefactor
    # diagonal k = n - m needs L_d^(|k|)(|α|²) at degree d = min(m, n), and
    # so degree d only at orders |k| < max(rows, cols) - d: the recurrence
    # in d runs over that shrinking prefix of orders, all orders at once
    top = max(rows, cols)
    orders = np.arange(top)
    lag = np.empty((min(rows, cols), top))
    lag[0] = 1.0
    if lag.shape[0] > 1:
        lag[1, : top - 1] = 1.0 + orders[: top - 1] - a2
    for d in range(2, lag.shape[0]):
        o = orders[: top - d]
        lag[d, : top - d] = (
            (2 * d - 1 + o - a2) * lag[d - 1, : top - d] - (d - 1 + o) * lag[d - 2, : top - d]
        ) / d
    phase = np.array([dn ** (-k) if k < 0 else up**k for k in range(1 - rows, cols)])
    m = np.arange(rows)[:, None]
    n = np.arange(cols)[None, :]
    low = np.minimum(m, n)
    k = n - m
    pref = np.exp(0.5 * (lf[low] - lf[np.maximum(m, n)]) + np.abs(k) * loga - 0.5 * a2)
    return phase[k + rows - 1] * pref * lag[low, np.abs(k)]


def slab_projection(alpha, xi, n_c):
    """⟨n|D(α)S(ξ)|0⟩, n ≤ n_c, as the slab times the squeezed vacuum.

    The source grows until its dropped tail is below 1e-28.
    """
    n_src = 64
    src = squeezed_vacuum_amplitudes(xi, n_src)
    while np.sum(src[-8:] ** 2) >= 1e-28:
        n_src *= 2
        src = squeezed_vacuum_amplitudes(xi, n_src)
    return displacement_slab(alpha, n_c + 1, src.size) @ src.astype(complex)


def slab_by_diagonals(alpha, rows, cols):
    """<m|D(alpha)|n> one diagonal at a time, one Laguerre sequence each."""
    a2 = abs(alpha) ** 2
    lf = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, rows + cols + 1.0)))))
    out = np.zeros((rows, cols), dtype=complex)
    loga = np.log(abs(alpha))
    up = -np.conj(alpha) / abs(alpha)
    dn = alpha / abs(alpha)
    for k in range(1 - rows, cols):
        if k >= 0:
            ms = np.arange(0, min(rows, cols - k))
            ns = ms + k
            phase = up**k
        else:
            ns = np.arange(0, min(cols, rows + k))
            ms = ns - k
            phase = dn ** (-k)
        deg = int(np.minimum(ms, ns)[-1])
        lag = np.fromiter(laguerre_sequence(abs(k), a2, deg), dtype=float, count=deg + 1)
        low = np.minimum(ms, ns)
        high = np.maximum(ms, ns)
        pref = np.exp(0.5 * (lf[low] - lf[high]) + abs(k) * loga - 0.5 * a2)
        out[ms, ns] = phase * pref * lag[low]
    return out


@pytest.mark.parametrize("alpha", [np.sqrt(np.pi), -3 * np.sqrt(np.pi), 2.0 * np.exp(1.3j)])
@pytest.mark.parametrize("shape", [(61, 1024), (61, 512), (161, 64), (1, 5), (5, 1)])
def test_displacement_slab_matches_diagonal_loop(alpha, shape):
    # same recurrence, same operations: the slabs agree bit for bit
    assert np.array_equal(displacement_slab(alpha, *shape), slab_by_diagonals(alpha, *shape))


def test_validators_reject_nan():
    with pytest.raises(NormalizationError):
        FockVector(np.array([np.nan, 1.0])).validate()
    entries = np.diag([0.5, 0.5]).astype(complex)
    entries[0, 1] = entries[1, 0] = np.nan
    with pytest.raises(NormalizationError):
        FockDensityMatrix(entries).validate()
    with pytest.raises(NormalizationError):
        FockDensityMatrix(np.diag([np.nan, 1.0])).validate()

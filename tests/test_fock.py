"""State-construction contracts.

Oracles: closed-form coherent overlaps, squeezed-vacuum variances,
Gaussian-unitary action on moments, and direct matrix exponentials
independent of the closed-form displacement-element route.
"""

import numpy as np
import pytest
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
    _displaced_squeezed_projection,
    _displacement_slab,
    apply_qubit_state,
    as_density,
    cat,
    coherent,
    displaced_squeezed,
    fidelity,
    gkp_logical,
    haar_unitary,
    load_state,
    qubit_rotation,
    random_qudit,
    save_state,
    state_from_json,
    state_moments,
    state_to_json,
    trim_density,
)


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


def test_cat_matches_closed_form_normalization():
    alpha = 1.5
    v = cat(alpha, "even", 40)
    raw = coherent(alpha, 40).amplitudes + coherent(-alpha, 40).amplitudes
    want = raw / np.sqrt(2 * (1 + np.exp(-2 * alpha**2)))
    assert np.max(np.abs(v.amplitudes - want)) < 1e-10


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
    # closed-form displacement elements vs truncated matrix exponentials
    # build space 400: strong squeezing has slow Fock tails and a smaller
    # exponential reference is itself under-truncated
    for alpha, xi in [(1.3, 0.4), (-0.7, -0.5), (2.0, 1.0), (-3.5446, 1.6)]:
        proj = _displaced_squeezed_projection(alpha, xi, 50)
        psi = gaussian_unitary(400, alpha=alpha, xi=xi)[:, 0]
        assert np.max(np.abs(proj - psi[:51])) < 1e-11, (alpha, xi)


def test_projection_far_outside_cutoff_is_negligible():
    # |alpha|^2 >> n_c: the honest projection is ~0, not a unitary artifact
    proj = _displaced_squeezed_projection(8 * np.sqrt(np.pi), 1.6, 60)
    assert np.linalg.norm(proj) < 1e-9


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


def test_gkp_auto_lattice_range():
    g = gkp_logical(0, 1.0, n_c=40)  # t_max grows until weights drop below 1e-10
    assert fidelity(g, coherent(0.0, 40)) > 0.99
    with pytest.raises(ValueError):
        gkp_logical(2, 0.5)
    with pytest.raises(ValueError):
        gkp_logical(0, -0.1)


# ----------------------------------------------------- qubits, random states


def test_qubit_rotation_special_angles():
    assert np.allclose(qubit_rotation(0.0, 0.0), np.diag([1.0, -1.0]))
    x = qubit_rotation(np.pi, 0.0)
    assert np.allclose(x, [[0, 1], [1, 0]], atol=1e-15)
    u = qubit_rotation(1.1, 0.7)
    assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-14


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
    assert np.array_equal(_displacement_slab(alpha, *shape), slab_by_diagonals(alpha, *shape))


def test_validators_reject_nan():
    with pytest.raises(NormalizationError):
        FockVector(np.array([np.nan, 1.0])).validate()
    entries = np.diag([0.5, 0.5]).astype(complex)
    entries[0, 1] = entries[1, 0] = np.nan
    with pytest.raises(NormalizationError):
        FockDensityMatrix(entries).validate()
    with pytest.raises(NormalizationError):
        FockDensityMatrix(np.diag([np.nan, 1.0])).validate()

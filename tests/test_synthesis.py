"""Wigner synthesis engine against an independent Laguerre-series oracle.

The oracle assembles W in phase space as W = W0 * F, with W0 the vacuum
Gaussian (1/pi) e^{-q^2-p^2} and F a polynomial accumulated over the
density-matrix diagonals, the |n><n+k| pair contributing

    (-1)^n sqrt(n!/(n+k)!) (sqrt2 (q+ip))^k  L_n^(k)(2q^2+2p^2)

with the conjugate-power twin for the lower triangle.  One three-term
Laguerre recurrence per diagonal serves values and gradients alike (the
gradient needs superscript k+1 sums, L_n^(k+1) = sum_{i<=n} L_i^(k)).
It shares no step with the engine's beam-splitter coefficients and
Hermite tables, but its unnormalised L_n^(k) overflow to nan from n ~ 140
on default grids, so the high-n checks use closed forms instead.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from ngm import fock, wigner
from ngm.channels import ThermalLossSpec, thermal_loss_fock
from ngm.errors import NormalizationError
from ngm.fock import FockVector, as_density, cat, displaced_squeezed, gkp_logical, random_qudit
from ngm.measure import ngm
from ngm.numerics import PhaseSpaceGrid, integrate
from ngm.wigner import _synthesize, default_grid, wigner_from_fock

# ln(n!) for n = 0..256
LOG_FACTORIAL = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, 257.0)))))


#: per-chunk float budget for the Laguerre table (~190 MB)
_TABLE_CELLS = 24_000_000


def _suffix(a):
    # suffix sums give the superscript-(k+1) gradient coefficients
    s = np.cumsum(a[::-1])[::-1]
    return np.concatenate((s[1:], [0.0 + 0.0j]))


def _laguerre_table(k, u, m, out, work):
    """Rows L_0^(k)(u) .. L_{m-1}^(k)(u) of the three-term recurrence."""
    out[0] = 1.0
    if m > 1:
        np.subtract(1.0 + k, u, out=out[1])
    for j in range(2, m):
        np.subtract(2 * j - 1 + k, u, out=work)
        work *= out[j - 1]
        np.multiply(out[j - 2], j - 1 + k, out=out[j])
        np.subtract(work, out[j], out=out[j])
        out[j] *= 1.0 / j


def laguerre_synthesize(c, grid, with_grad):
    """The Laguerre-series field(s) of c: [W] or [W, dW/dq, dW/dp].

    The grid must be symmetric about both axes.  The Laguerre tables,
    functions of q^2 + p^2 alone, are built on the quadrant q, p >= 0 only.
    The series is summed there and at its mirror (q, -p), where
    A = sqrt2 (q + ip) is conj A.  The other two quadrants are those points
    reflected through the origin, where A^k turns into (-1)^k A^k, so their
    sums are the even-k terms minus the odd-k ones (the reverse for the
    gradients, one power of A lower).
    """
    dim = c.shape[0]
    hq, hp = grid.n_q // 2, grid.n_p // 2
    assert grid.q_min == -grid.q_max and grid.p_min == -grid.p_max
    Q, P = np.meshgrid(grid.q[hq:], grid.p[hp:], indexing="ij")
    u = (2.0 * (Q**2 + P**2)).ravel()
    A = (np.sqrt(2.0) * (Q + 1j * P)).ravel()
    npts = u.size

    signs = (-1.0) ** np.arange(dim)
    # [parity of k, mirror]: sum_k A^k S_k of the upper (S_u) and lower
    # (S_d) diagonals; R the same over the gradient sums T; G and H the
    # k A^(k-1) S_u and k conj(A)^(k-1) S_d sums
    F = np.zeros((2, 2, npts), dtype=complex)
    if with_grad:
        R, G, H = (np.zeros((2, 2, npts), dtype=complex) for _ in range(3))

    # Diagonals may be skipped only by the size of the raw density entries:
    # dropping a band Delta changes W pointwise by at most (2/pi)||Delta||_tr
    # <= (2/pi) sum|entries|, so a relative 1e-16 band is harmless, whereas
    # the prefactored coefficients a_j say nothing (A^k L_n^(k) is unbounded
    # on the grid and can amplify a tiny coefficient arbitrarily).
    raw_tol = 1e-16 * max(np.max(np.abs(c)), 1e-300)
    Apow = np.ones(npts, dtype=complex)
    for k in range(dim):
        Aprev = Apow
        if k > 0:
            Apow = Apow * A
        js = np.arange(dim - k)
        raw = max(np.max(np.abs(c[js, js + k])), np.max(np.abs(c[js + k, js])))
        if raw <= raw_tol:
            continue
        m = dim - k
        pref = signs[js] * np.exp(0.5 * (LOG_FACTORIAL[js] - LOG_FACTORIAL[js + k]))
        a = c[js, js + k] * pref
        # the lower diagonal enters once the upper one is the main one
        b = c[js + k, js] * pref if k > 0 else np.zeros_like(a)
        rows = [a, b]
        if with_grad:
            rows += [_suffix(a), _suffix(b)]
        coeffs = np.vstack(rows)
        n_rows = coeffs.shape[0]
        # one real GEMM per chunk combines every coefficient vector with the
        # shared Laguerre table (stacked real/imaginary parts)
        C = np.vstack((coeffs.real, coeffs.imag))
        chunk = max(4096, min(npts, _TABLE_CELLS // m))
        table = np.empty((m, min(chunk, npts)))
        work = np.empty(min(chunk, npts))
        for s in range(0, npts, chunk):
            e = min(npts, s + chunk)
            L = table[:, : e - s]
            _laguerre_table(k, u[s:e], m, L, work[: e - s])
            prod = C @ L
            sums = prod[:n_rows] + 1j * prod[n_rows:]
            Ak, Akc = Apow[s:e], np.conj(Apow[s:e])
            for mirror, (up, down) in enumerate(((Ak, Akc), (Akc, Ak))):
                F[k % 2, mirror, s:e] += up * sums[0] + down * sums[1]
                if with_grad:
                    R[k % 2, mirror, s:e] += up * sums[2] + down * sums[3]
            if with_grad and k > 0:
                Ap, Apc = Aprev[s:e], np.conj(Aprev[s:e])
                for mirror, (up, down) in enumerate(((Ap, Apc), (Apc, Ap))):
                    G[k % 2, mirror, s:e] += k * (up * sums[0])
                    H[k % 2, mirror, s:e] += k * (down * sums[1])
    shape = (hq + 1, hp + 1)
    quadrant_q = np.stack((Q, Q)).reshape(2, -1)
    quadrant_p = np.stack((P, -P)).reshape(2, -1)
    parts = [F]
    if with_grad:
        rt2 = np.sqrt(2.0)
        parts.append(rt2 * (G + H) - 4.0 * quadrant_q * R)
        parts.append(1j * rt2 * (G - H) - 4.0 * quadrant_p * R)
    full = []
    for i, part in enumerate(parts):
        # the point reflection: (-1)^k on W's terms, (-1)^(k-1) on the gradients'
        flip = 1.0 if i == 0 else -1.0
        out = np.empty(grid.shape, dtype=complex)
        near = (part[0] + part[1]).reshape(2, *shape)
        far = (flip * (part[0] - part[1])).reshape(2, *shape)
        out[hq:, hp:] = near[0]
        out[hq:, : hp + 1] = near[1][:, ::-1]
        out[: hq + 1, : hp + 1] = far[0][::-1, ::-1]
        out[: hq + 1, hp:] = far[1][::-1, :]
        full.append(out)
    Qg, Pg = grid.meshes()
    w0 = np.exp(-(Qg**2 + Pg**2)) / np.pi
    out = [w0 * full[0]]
    if with_grad:
        out.append(w0 * (full[1] - 2.0 * Qg * full[0]))
        out.append(w0 * (full[2] - 2.0 * Pg * full[0]))
    return out


def assert_fields_close(got, want, tol=1e-12):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) < tol


STATES = {
    "cat": lambda: cat(1.5, "even", 40),
    "displaced-squeezed": lambda: displaced_squeezed(1.2 * np.exp(0.9j), 0.4, 50),
    "real-displaced-squeezed": lambda: displaced_squeezed(1.2, -0.4, 50),
    "fock": lambda: number_state(9),
    "qudit": lambda: random_qudit(5, [0, 2, 3, 5, 6], seed=7),
    "lossy-cat": lambda: thermal_loss_fock(
        as_density(cat(1.5, "odd", 30)), ThermalLossSpec(tau=0.7, n_bar=0.1)
    ),
}


@pytest.mark.parametrize("name", sorted(STATES))
def test_engine_matches_laguerre_oracle(name):
    rho = as_density(STATES[name]())
    grid = default_grid(rho, points=257)
    want = laguerre_synthesize(rho.entries, grid, with_grad=True)
    assert_fields_close(_synthesize(rho.entries, grid, with_grad=False), want[:1])
    assert_fields_close(_synthesize(rho.entries, grid, with_grad=True), want)


def test_engine_matches_laguerre_oracle_on_gkp_1025():
    rho = as_density(gkp_logical(0, 10 ** (-10 / 20), n_c=60))
    grid = default_grid(rho, points=1025)
    want = laguerre_synthesize(rho.entries, grid, with_grad=True)
    assert_fields_close(_synthesize(rho.entries, grid, with_grad=False), want[:1])
    assert_fields_close(_synthesize(rho.entries, grid, with_grad=True), want)


def test_engine_matches_laguerre_oracle_past_the_reach():
    # the grid reaches past every Hermite function's turning point, where
    # the tables fall to rounding and below
    rho = as_density(cat(1.5, "odd", 20))
    grid = PhaseSpaceGrid(-25, 25, -25, 25, 201, 201)
    want = laguerre_synthesize(rho.entries, grid, with_grad=True)
    assert_fields_close(_synthesize(rho.entries, grid, with_grad=True), want)


def test_beam_splitter_block_is_orthogonal():
    # B^200 in full (d = 201): rows m <= n over j <= N/2 from the recurrence,
    # columns j > N/2 by row(m, n)[N - j] = (-1)^m row(m, n)[j] and rows
    # m > n by row(n, m)[j] = (-1)^(N - j) row(m, n)[j]
    N = 200
    for level, half in wigner._beam_splitter_rows(N + 1):
        if level == N:
            break
    assert half.shape == (N // 2 + 1, N // 2 + 1)
    m = np.arange(N // 2 + 1)[:, None]
    rows = np.hstack((half, ((-1.0) ** m * half)[:, -2::-1]))
    sign = (-1.0) ** (N - np.arange(N + 1))
    B = np.vstack((rows, (rows[: N // 2] * sign)[::-1]))
    assert np.max(np.abs(B @ B.T - np.eye(N + 1))) <= 1e-13


def streamed_coefficients(c):
    """_coefficients of c with every bucket fresh from the recurrence."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wigner, "_blocks", (0, ()))
        patch.setattr(wigner, "_BLOCK_CACHE_CELLS", 0)
        return wigner._coefficients(c)


def per_level_coefficients(c):
    """D by one product per beam-splitter level, written level by level
    into D's antidiagonals: the loop the batched buckets replaced."""
    dim = c.shape[0]
    size = 2 * dim - 1
    even = c + c.T
    even[np.diag_indices(dim)] *= 0.5
    odd = c - c.T
    # pair weights in level order: N = m + n, then m
    m, n = np.triu_indices(dim)
    order = np.lexsort((m, m + n))
    weights = np.stack([part.ravel()[(m * dim + n)[order]] for part in (even.real, odd.imag)])
    weights = np.vstack((weights, weights * (-1.0) ** m[order]))
    start = np.concatenate(([0], np.cumsum(np.bincount(m + n, minlength=size))))
    D = np.zeros((size, size))
    flat = D.ravel()
    for N, rows in wigner._beam_splitter_rows(dim):
        vals = weights[:, start[N] : start[N + 1]] @ rows
        cols = rows.shape[1]
        # antidiagonal N, D[j, N - j], and its mirror D[N - j, j]
        line = flat[N : N * size + 1 : max(size - 1, 1)]
        mirror = line[::-1]
        line[N % 2 : cols : 2] = vals[0, N % 2 :: 2]
        line[1 - N % 2 : cols : 2] = vals[1, 1 - N % 2 :: 2]
        mirror[0:cols:2] = vals[2, 0::2]
        mirror[1:cols:2] = vals[3, 1::2]
    quarter = np.arange(size) % 4
    D *= np.where((quarter == 1) | (quarter == 2), -1.0, 1.0)
    return D


def random_matrix(rng, dim):
    # neither Hermitian nor anti-Hermitian
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def hermitian_parts(c):
    """h = (c + c^+)/2 and a = (c - c^+)/2i, both Hermitian: W[c] = W[h] + i W[a]."""
    return 0.5 * (c + c.conj().T), (c - c.conj().T) / 2j


@pytest.mark.parametrize("dims", [(2, 19, 61, 161), (161, 61, 19, 2)], ids=["growing", "shrinking"])
def test_cached_blocks_give_the_recurrence_coefficients(monkeypatch, dims):
    monkeypatch.setattr(wigner, "_blocks", (0, ()))
    rng = np.random.default_rng(5)
    for dim in dims:
        for c in hermitian_parts(random_matrix(rng, dim)):
            want = streamed_coefficients(c)
            got = wigner._coefficients(c)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert wigner._blocks[0] == 161


def padded_cells(dim):
    """Cells of dim's zero-padded bucket stacks."""
    return sum(np.prod(shape) for shape in wigner._bucket_maps(dim)[0])


#: the largest dim whose bucket stacks fit the cache ceiling
CACHE_TOP = 195


def test_block_cache_stays_under_its_ceiling(monkeypatch):
    monkeypatch.setattr(wigner, "_blocks", (0, ()))
    top = CACHE_TOP
    assert padded_cells(top) <= wigner._BLOCK_CACHE_CELLS < padded_cells(top + 1)
    wigner._coefficients(np.eye(top) / top)
    dim, stacks = wigner._blocks[:2]
    assert dim == top
    assert [stack.shape for stack in stacks] == list(wigner._bucket_maps(top)[0])
    held = sum((stack if stack.base is None else stack.base).nbytes for stack in stacks)
    assert held == 8 * padded_cells(top) <= 16 * 2**20
    # a dim past the ceiling streams and leaves the cache as it was
    rng = np.random.default_rng(6)
    c = random_matrix(rng, top + 1)
    D = wigner._coefficients(c)
    assert wigner._blocks[0] == top and wigner._blocks[1] is stacks
    assert np.array_equal(D, streamed_coefficients(c))


COEFFICIENT_INPUTS = {
    "hermitian": lambda rng, dim: (lambda a: a + a.conj().T)(random_matrix(rng, dim)),
    # the Hermitian a whose field is the imaginary field of a random matrix
    "complex": lambda rng, dim: hermitian_parts(random_matrix(rng, dim))[1],
    "cat": lambda rng, dim: as_density(cat(1.5, "odd", max(dim - 1, 40))).entries[:dim, :dim],
    "fock": lambda rng, dim: number_state(dim - 1).to_density().entries,
}


@pytest.mark.parametrize("kind", sorted(COEFFICIENT_INPUTS))
@pytest.mark.parametrize("dim", [1, 2, 19, 61, 161, CACHE_TOP + 1])
def test_batched_coefficients_match_the_per_level_loop(monkeypatch, kind, dim):
    # the cache is built for 161 first, so a smaller dim reads the last rows
    # of its stacks; CACHE_TOP + 1 streams its buckets
    monkeypatch.setattr(wigner, "_blocks", (0, ()))
    wigner._coefficients(np.eye(161))
    c = COEFFICIENT_INPUTS[kind](np.random.default_rng(dim), dim)
    got = wigner._coefficients(c)
    want = per_level_coefficients(c)
    assert got.shape == want.shape == (2 * dim - 1, 2 * dim - 1)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    # exact zeros (past level 2 dim - 2, and whole levels of a cat or a
    # number state) carry no sign
    assert (got == 0.0).any() or dim == 1
    assert not np.signbit(got[got == 0.0]).any()


def test_threads_synthesizing_mixed_dims_match_serial_runs(monkeypatch):
    rng = np.random.default_rng(7)
    dims = (41, 3, 161, 19, 2, 61, 141, 7, 101, 33)
    mats = [hermitian_parts(random_matrix(rng, dim))[0] for dim in dims]
    # an anti-Hermitian part whose entrywise bound (3.2e-9) sends its fields
    # through synthesis and whose residue (4.1e-10) passes
    x = np.random.default_rng(8).standard_normal((41, 41))
    mats.append(mats[0] + 5e-12j * (x + x.T))
    grid = PhaseSpaceGrid(-6.0, 6.0, -6.0, 6.0, 65, 65)
    serial = []
    for c in mats:
        monkeypatch.setattr(wigner, "_blocks", (0, ()))
        serial.append(_synthesize(c, grid, with_grad=True))
    monkeypatch.setattr(wigner, "_blocks", (0, ()))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_synthesize, c, grid, True) for c in mats]
            threaded = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    # growth under the lock only ever enlarges the cache
    assert wigner._blocks[0] == 161
    for got, want in zip(threaded, serial):
        for f, g in zip(got, want):
            assert np.array_equal(f.view(np.int64), g.view(np.int64))


@pytest.mark.parametrize("n_c", [60, 160])
def test_hermitian_input_builds_one_coefficient_set(monkeypatch, n_c):
    # a pure state's outer product is exactly Hermitian: no imaginary field
    # is synthesized, so the O(dim^3) coefficient build runs once
    calls = []
    coefficients = wigner._coefficients

    def spy(c):
        calls.append(c)
        return coefficients(c)

    monkeypatch.setattr(wigner, "_coefficients", spy)
    rho = as_density(displaced_squeezed(2.0 * np.exp(0.7j), (n_c - 60) / 100, n_c))
    fields = _synthesize(rho.entries, default_grid(rho, points=65), with_grad=False)
    assert len(calls) == 1
    assert not np.iscomplexobj(fields[0])


def fields_by_whole_blocks(D, q, p):
    """W and its rounding bound by the loop before reused buffers.

    Fresh temporaries for every block of 64 q rows: the bound, |W| and
    the mask, with the small cells zeroed by boolean indexing.
    """
    size = D.shape[0]
    table = wigner._hermite_functions(np.sqrt(2.0) * np.concatenate((q, p)), size)
    Aq, Ap = table[:, : q.size], table[:, q.size :]
    D = D / np.sqrt(np.pi)
    W = Aq.T @ (D @ Ap)
    n_terms = 2 * size
    u = np.finfo(float).eps / 2.0
    spread = np.abs(D) @ np.abs(Ap)
    spread *= n_terms * u / (1.0 - n_terms * u)
    bound = np.empty_like(W)
    for start in range(0, q.size, 64):
        rows = slice(start, start + 64)
        row_bound = np.abs(Aq)[:, rows].T @ spread
        block = W[rows]
        block[np.abs(block) <= row_bound] = 0.0
        bound[rows] = row_bound
    return W, bound


#: unit roundoff of float64
UNIT = np.finfo(float).eps / 2.0


@pytest.mark.parametrize(
    "make",
    [
        lambda: thermal_loss_fock(random_qudit(5, seed=3), ThermalLossSpec(0.7, 0.01)),
        lambda: displaced_squeezed(2.0 * np.exp(0.7j), 1.0, 160),
        lambda: displaced_squeezed(2.0, 1.0, 160),
        lambda: cat(1.5, "even", 40),
        lambda: gkp_logical(1, 10 ** (-10 / 20), n_c=60),
    ],
    ids=["lossy-qudit", "ds160", "real-ds160", "cat", "gkp"],
)
def test_rounding_bound_buffers_match_whole_blocks(make, monkeypatch):
    # the parity split sums the same products in another order, so W
    # matches the whole GEMMs within both bounds, not to the bit; a real
    # state's W is computed on p >= 0 (and a cat's and a GKP state's on
    # q >= 0 too) and its bound there, and both are mirrored
    rho = as_density(make())
    grid = default_grid(rho)
    D = wigner._coefficients(rho.entries)
    bound = np.empty(grid.shape)
    (W,) = wigner._fields(D, grid.q, grid.p, False, bound)
    want_W, want_bound = fields_by_whole_blocks(D, grid.q, grid.p)
    # the same products with a zero bound: nothing but exact zeros is cut
    monkeypatch.setattr(wigner, "_UNIT_ROUNDOFF", 0.0)
    (raw,) = wigner._fields(D, grid.q, grid.p, False)
    zeroed = np.abs(raw) <= bound
    assert np.array_equal(W == 0.0, zeroed)
    assert np.array_equal(W[~zeroed], raw[~zeroed])
    # both bounds sum the same non-negative products, in other orders
    # (measured: 5.5 u on the qudit, 20 u on ds160)
    assert np.all(np.abs(bound - want_bound) <= 32 * UNIT * want_bound)
    assert np.all(np.abs(W - want_W) <= bound + want_bound)


def whole_gemm_fields(D, q, p):
    """[(W, its bound), (dW/dq, bound), (dW/dp, bound)] by whole GEMMs.

    The tables cover both axes whole, the products are unsplit and nothing
    is cut; each bound is gamma |L|^T |D| |R| / sqrt(pi) for the field
    L^T D R / sqrt(pi), with gamma = 2 size u / (1 - 2 size u).
    """
    size = D.shape[0]
    table = wigner._hermite_functions(np.sqrt(2.0) * np.concatenate((q, p)), size + 1)
    root = np.sqrt(np.arange(size + 1.0))[:, None]
    deriv = root[:size] * np.vstack((np.zeros_like(table[:1]), table[: size - 1]))
    deriv -= root[1:] * table[1:]
    A, dA = table[:size], deriv
    D = D / np.sqrt(np.pi)
    gamma = 2 * size * UNIT / (1.0 - 2 * size * UNIT)
    pairs = [(A, A), (dA, A), (A, dA)]
    return [
        (L[:, : q.size].T @ (D @ R[:, q.size :]),
         gamma * (np.abs(L[:, : q.size]).T @ (np.abs(D) @ np.abs(R[:, q.size :]))))
        for L, R in pairs
    ]


KERNEL_GRIDS = {
    "mirrored-65": lambda: PhaseSpaceGrid(-6.0, 6.0, -6.0, 6.0, 65, 65),
    "mirrored-1025": lambda: PhaseSpaceGrid(-9.0, 9.0, -9.0, 9.0, 1025, 1025),
    # q is not mirrored, p = (-1, 0, 1) is
    "outer-ring": lambda: PhaseSpaceGrid(25.3, 31.3, -1, 1, 41, 3, min_points=2),
}


def summed_gkp(n_c):
    """A 10 dB GKP logical 0 as its weighted row sum over the lattice sites
    -8 .. 8 in order: its odd entries are rounding, not 0.0."""
    sites = 2 * np.arange(-4, 5)
    rows = fock._displaced_squeezed_rows(sites * np.sqrt(np.pi), np.log(10.0) / 2.0, n_c)
    return FockVector(np.exp(-(np.pi / 20.0) * sites**2) @ rows, normalize=True)


def odd_odd_imaginary(c):
    """The a of c plus 1e-3 (X - X^T), X real and nonzero only at m + n
    even: an imaginary field odd in q and in p."""
    m, n = np.indices(c.shape)
    X = np.random.default_rng(12).normal(size=c.shape) * ((m + n) % 2 == 0)
    return hermitian_parts(c + 1e-3 * (X - X.T))[1]


def random_imaginary(c, reach=slice(None)):
    """The a of c plus a random anti-Hermitian part where it reaches the
    grid: an imaginary field of no parity."""
    part = random_matrix(np.random.default_rng(11), c.shape[0])[reach, reach]
    c = c.copy()
    c[reach, reach] += 1e-3 * (part - part.conj().T)
    return hermitian_parts(c)[1]


#: per input, a Hermitian Fock matrix that reaches the mirrored grids and
#: the order parities along q and p that _fields finds (None: both parities)
KERNEL_INPUTS = {
    # even in q and in p
    "hermitian": (lambda: as_density(cat(1.5, "odd", 30)).entries, (0, 0)),
    "fock": (lambda: number_state(12).to_density().entries, (0, 0)),
    # even in p only
    "real-ds": (lambda: as_density(displaced_squeezed(1.2, 0.3, 40)).entries, (None, 0)),
    "summed-gkp": (lambda: as_density(summed_gkp(40)).entries, (None, 0)),
    # neither
    "complex-ds": (lambda: as_density(displaced_squeezed(1.2 * np.exp(0.9j), 0.4, 40)).entries,
                   (None, None)),
    # the imaginary fields of the cat plus an anti-Hermitian part
    "complex": (lambda: random_imaginary(as_density(cat(1.5, "odd", 30)).entries), (None, None)),
    "odd-anti": (lambda: odd_odd_imaginary(as_density(cat(1.5, "odd", 30)).entries), (1, 1)),
}

#: q is not mirrored on the outer ring, so its products take the general path
RING_INPUTS = {
    "hermitian": (lambda: number_state(400).to_density().entries, (None, 0)),
    "complex": (lambda: random_imaginary(number_state(400).to_density().entries,
                                         slice(390, None)), (None, None)),
}


@pytest.mark.parametrize(
    "grid_name, kind",
    [(grid, kind) for grid in ("mirrored-65", "mirrored-1025") for kind in KERNEL_INPUTS]
    + [("outer-ring", kind) for kind in RING_INPUTS],
    ids=lambda value: value,
)
def test_parity_kernel_matches_whole_gemms(grid_name, kind, monkeypatch):
    # W and both gradients, each within the two computations' bounds of
    # each other; a cell of W that the kernel zeroed was within its own
    # bound of 0, so it is within three bounds of the whole GEMM.  Along
    # an axis of definite parity the fields mirror bit for bit, the
    # derivative along it with the opposite sign
    grid = KERNEL_GRIDS[grid_name]()
    make, (pq, pp) = (RING_INPUTS if grid_name == "outer-ring" else KERNEL_INPUTS)[kind]
    D = wigner._coefficients(make())
    orders = []
    product = wigner._parity_product

    def spy(T, Y, h, odd, out, *args, order=None, **kwargs):
        orders.append((out.shape == grid.shape, order))
        return product(T, Y, h, odd, out, *args, order=order, **kwargs)

    monkeypatch.setattr(wigner, "_parity_product", spy)
    got = wigner._fields(D, grid.q, grid.p, True)
    # D A_p^T, W, dW/dq, D dA_p^T, dW/dp: the inner products run along p
    assert orders == [(False, pp), (True, pq), (True, pq), (False, pp), (True, pq)]
    want = whole_gemm_fields(D, grid.q, grid.p)
    assert np.max(np.abs(want[0][0])) > 1e-4
    for i, (field, (oracle, bound)) in enumerate(zip(got, want)):
        assert field.shape == grid.shape
        assert np.all(np.abs(field - oracle) <= (3.0 if i == 0 else 2.0) * bound)
    for axis, parity in enumerate((pq, pp)):
        if parity is not None:
            for i, field in enumerate(got):
                sign = (-1.0) ** (parity + (i == axis + 1))
                assert np.array_equal(np.flip(field, axis), sign * field)


def number_state(n):
    amp = np.zeros(n + 1)
    amp[n] = 1.0
    return FockVector(amp)


@pytest.mark.parametrize("n", [140, 200, 250])
def test_number_state_origin_closed_form(n):
    # W_n(0, 0) = (-1)^n / pi, past the cutoff where the oracle overflows
    grid = PhaseSpaceGrid(-1, 1, -1, 1, 5, 5, min_points=2)
    (W,) = _synthesize(number_state(n).to_density().entries, grid, with_grad=False)
    assert abs(W[2, 2] - (-1) ** n / np.pi) < 1e-13


def test_number_state_400_outer_ring_matches_closed_form():
    # at sqrt2 q > 37 the seed phi_0 of the Hermite tables underflows while
    # phi_798 is O(1): |400>'s outer ring needs the per-point exponent.  The
    # oracle W_n(q, 0) = (-1)^n e^{-q^2} L_n(2 q^2) / pi in arbitrary
    # precision cannot underflow (n is even)
    n = 400
    grid = PhaseSpaceGrid(25.3, 31.3, -1, 1, 41, 3, min_points=2)
    (W,) = _synthesize(number_state(n).to_density().entries, grid, with_grad=False)
    with mp.workdps(40):
        want = [
            float(mp.exp(-mpf(q) ** 2) * mp.laguerre(n, 0, 2 * mpf(q) ** 2) / mp.pi)
            for q in grid.q
        ]
    assert np.max(np.abs(want)) > 1e-2
    assert np.max(np.abs(W[:, 1] - np.array(want))) < 1e-13


def test_number_state_140_mass():
    state = number_state(140)
    field = wigner_from_fock(state, points=2049)
    assert integrate(field.values, field.grid) == pytest.approx(1.0, abs=1e-9)
    # 513 points space the rings of |140> ~0.19 apart, below dq = 0.25:
    # the quadrature loses mass, which must raise rather than pass as nan
    with pytest.raises(NormalizationError):
        ngm(state)


def test_number_state_140_mass_error_names_the_points_needed():
    # n = 140's finest fringes are pi / (2 sqrt 281) = 0.0937 apart; the
    # 513-point step is 0.2547, and 1857 points bring it to 0.0703, 3/4
    # of the spacing
    state = number_state(140)
    with pytest.raises(NormalizationError) as info:
        ngm(state)
    message = str(info.value)
    for fact in ("dq = 0.2547", "spacing 0.09371", "n = 140", "1857 points"):
        assert fact in message
    assert ngm(state, points=1857).validate().neg_volume > 0.0


@settings(max_examples=20, deadline=None)
@given(
    r=st.floats(0.0, 2.0),
    theta=st.floats(0.0, 2.0 * np.pi),
    xi=st.floats(-0.4, 0.4),
)
def test_gaussian_faithfulness_random_displaced_squeezed(r, theta, xi):
    # criterion 1's bounds at n_c = 100: |alpha| <= 2, |xi| <= 0.4 (a
    # tighter cutoff leaves truncation ripples of ~1e-7 negativity)
    value = ngm(displaced_squeezed(r * np.exp(1j * theta), xi, n_c=100), points=129)
    assert abs(value.re_mu) < 1e-3
    assert value.im_mu < 1e-6

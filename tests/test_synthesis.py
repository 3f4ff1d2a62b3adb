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

from ngm import wigner
from ngm.channels import ThermalLossSpec, thermal_loss_fock
from ngm.errors import NormalizationError
from ngm.fock import FockVector, as_density, cat, displaced_squeezed, gkp_logical, random_qudit
from ngm.measure import ngm
from ngm.numerics import PhaseSpaceGrid
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


def streamed_coefficients(c, anti):
    """_coefficients of c with every level fresh from the recurrence."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wigner, "_block_levels", wigner._beam_splitter_rows)
        return wigner._coefficients(c, anti)


def random_matrix(rng, dim):
    # neither Hermitian nor anti-Hermitian, so both coefficient sets are live
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


@pytest.mark.parametrize("dims", [(2, 19, 61, 161), (161, 61, 19, 2)], ids=["growing", "shrinking"])
def test_cached_blocks_give_the_recurrence_coefficients(monkeypatch, dims):
    monkeypatch.setattr(wigner, "_blocks", (0, ()))
    rng = np.random.default_rng(5)
    for dim in dims:
        c = random_matrix(rng, dim)
        want = streamed_coefficients(c, True)
        got = wigner._coefficients(c, True)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert wigner._blocks[0] == 161


def test_block_cache_stays_under_its_ceiling(monkeypatch):
    monkeypatch.setattr(wigner, "_blocks", (0, ()))
    top = 202
    assert wigner._block_cells(top) <= wigner._BLOCK_CACHE_CELLS < wigner._block_cells(top + 1)
    wigner._coefficients(np.eye(top) / top, False)
    dim, levels = wigner._blocks
    held = sum((level if level.base is None else level.base).nbytes for level in levels)
    assert dim == top
    assert held == 8 * wigner._block_cells(top) <= 16 * 2**20
    # a dim past the ceiling streams and leaves the cache as it was
    rng = np.random.default_rng(6)
    c = random_matrix(rng, top + 1)
    D = wigner._coefficients(c, False)
    assert wigner._blocks[0] == top and wigner._blocks[1] is levels
    assert np.array_equal(D, streamed_coefficients(c, False))


def test_threads_synthesizing_mixed_dims_match_serial_runs(monkeypatch):
    rng = np.random.default_rng(7)
    mats = [random_matrix(rng, dim) for dim in (41, 3, 161, 19, 2, 61, 141, 7, 101, 33)]
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

    def spy(c, anti):
        calls.append(anti)
        return coefficients(c, anti)

    monkeypatch.setattr(wigner, "_coefficients", spy)
    rho = as_density(displaced_squeezed(2.0 * np.exp(0.7j), (n_c - 60) / 100, n_c))
    fields = _synthesize(rho.entries, default_grid(rho, points=65), with_grad=False)
    assert calls == [False]
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
    ],
    ids=["lossy-qudit", "ds160"],
)
def test_rounding_bound_buffers_match_whole_blocks(make, monkeypatch):
    # the parity split sums the same products in another order, so W
    # matches the whole GEMMs within both bounds, not to the bit
    rho = as_density(make())
    grid = default_grid(rho)
    D = wigner._coefficients(rho.entries, False)[0]
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


def kernel_input(grid_name, anti):
    """A Hermitian matrix that reaches the grid, plus an anti-Hermitian
    part (an imaginary field) where it reaches it too, if ``anti``."""
    if grid_name == "outer-ring":
        c = number_state(400).to_density().entries
        reach = slice(390, None)
    else:
        c = as_density(cat(1.5, "odd", 30)).entries
        reach = slice(None)
    if anti:
        rng = np.random.default_rng(11)
        part = random_matrix(rng, c.shape[0])[reach, reach]
        c = c.copy()
        c[reach, reach] += 1e-3 * (part - part.conj().T)
    return c


@pytest.mark.parametrize("anti", [False, True], ids=["hermitian", "complex"])
@pytest.mark.parametrize("grid_name", sorted(KERNEL_GRIDS))
def test_parity_kernel_matches_whole_gemms(grid_name, anti):
    # W and both gradients, each within the two computations' bounds of
    # each other; a cell of W that the kernel zeroed was within its own
    # bound of 0, so it is within three bounds of the whole GEMM
    grid = KERNEL_GRIDS[grid_name]()
    sets = wigner._coefficients(kernel_input(grid_name, anti), anti)
    assert len(sets) == 1 + anti
    for D in sets:
        got = wigner._fields(D, grid.q, grid.p, True)
        want = whole_gemm_fields(D, grid.q, grid.p)
        assert np.max(np.abs(want[0][0])) > 1e-4
        for i, (field, (oracle, bound)) in enumerate(zip(got, want)):
            assert field.shape == grid.shape
            assert np.all(np.abs(field - oracle) <= (3.0 if i == 0 else 2.0) * bound)


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
    assert wigner_from_fock(state, points=2049).integral() == pytest.approx(1.0, abs=1e-9)
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

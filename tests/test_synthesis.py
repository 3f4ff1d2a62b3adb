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
    """The Laguerre-series field(s) of c: [W] or [W, dW/dq, dW/dp]."""
    dim = c.shape[0]
    Q, P = grid.meshes()
    r2 = Q**2 + P**2
    w0 = np.exp(-r2) / np.pi
    u = (2.0 * r2).ravel()
    A = (np.sqrt(2.0) * (Q + 1j * P)).ravel()
    Qf, Pf = Q.ravel(), P.ravel()
    npts = u.size

    signs = (-1.0) ** np.arange(dim)
    F = np.zeros(npts, dtype=complex)
    Fq = np.zeros(npts, dtype=complex) if with_grad else None
    Fp = np.zeros(npts, dtype=complex) if with_grad else None

    # Diagonals may be skipped only by the size of the raw density entries:
    # dropping a band Delta changes W pointwise by at most (2/pi)||Delta||_tr
    # <= (2/pi) sum|entries|, so a relative 1e-16 band is harmless, whereas
    # the prefactored coefficients a_j say nothing (A^k L_n^(k) is unbounded
    # on the grid and can amplify a tiny coefficient arbitrarily).
    raw_tol = 1e-16 * max(np.max(np.abs(c)), 1e-300)
    Apow = np.ones(npts, dtype=complex)
    Aprev = None
    for k in range(dim):
        if k > 0:
            if with_grad:
                Aprev = Apow.copy()
            Apow *= A
        js = np.arange(dim - k)
        raw = max(np.max(np.abs(c[js, js + k])), np.max(np.abs(c[js + k, js])))
        if raw <= raw_tol:
            continue
        m = dim - k
        pref = signs[js] * np.exp(0.5 * (LOG_FACTORIAL[js] - LOG_FACTORIAL[js + k]))
        a = c[js, js + k] * pref
        rows = [a]
        if k > 0:
            b = c[js + k, js] * pref
            rows.append(b)
        if with_grad:
            rows.append(_suffix(a))
            if k > 0:
                rows.append(_suffix(b))
        R = np.vstack(rows)
        n_rows = R.shape[0]
        # one real GEMM per chunk combines every coefficient vector with the
        # shared Laguerre table (stacked real/imaginary parts)
        C = np.vstack((R.real, R.imag))
        chunk = max(4096, min(npts, _TABLE_CELLS // m))
        table = np.empty((m, min(chunk, npts)))
        work = np.empty(min(chunk, npts))
        for s in range(0, npts, chunk):
            e = min(npts, s + chunk)
            L = table[:, : e - s]
            _laguerre_table(k, u[s:e], m, L, work[: e - s])
            G = C @ L
            sums = G[:n_rows] + 1j * G[n_rows:]
            if k == 0:
                Su = sums[0]
                F[s:e] += Su
                if with_grad:
                    Tu = sums[1]
                    Fq[s:e] += -4.0 * Qf[s:e] * Tu
                    Fp[s:e] += -4.0 * Pf[s:e] * Tu
            else:
                Su, Sd = sums[0], sums[1]
                Ak = Apow[s:e]
                Akc = np.conj(Ak)
                F[s:e] += Ak * Su + Akc * Sd
                if with_grad:
                    Tu, Td = sums[2], sums[3]
                    radial = Ak * Tu + Akc * Td
                    side = Aprev[s:e] * Su
                    side_c = np.conj(Aprev[s:e]) * Sd
                    rt2k = np.sqrt(2.0) * k
                    Fq[s:e] += rt2k * (side + side_c) - 4.0 * Qf[s:e] * radial
                    Fp[s:e] += 1j * rt2k * (side - side_c) - 4.0 * Pf[s:e] * radial
    shape = grid.shape
    W = w0 * F.reshape(shape)
    out = [W]
    if with_grad:
        out.append(w0 * (Fq.reshape(shape) - 2.0 * Q * F.reshape(shape)))
        out.append(w0 * (Fp.reshape(shape) - 2.0 * P * F.reshape(shape)))
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


@pytest.mark.parametrize(
    "make",
    [
        lambda: thermal_loss_fock(random_qudit(5, seed=3), ThermalLossSpec(0.7, 0.01)),
        lambda: displaced_squeezed(2.0 * np.exp(0.7j), 1.0, 160),
    ],
    ids=["lossy-qudit", "ds160"],
)
def test_rounding_bound_buffers_match_whole_blocks(make):
    # the same cells are zeroed, to the bit and the sign
    rho = as_density(make())
    grid = default_grid(rho)
    D = wigner._coefficients(rho.entries, False)[0]
    bound = np.empty(grid.shape)
    (W,) = wigner._fields(D, grid.q, grid.p, False, bound)
    want_W, want_bound = fields_by_whole_blocks(D, grid.q, grid.p)
    assert np.array_equal(W.view(np.int64), want_W.view(np.int64))
    assert np.array_equal(bound.view(np.int64), want_bound.view(np.int64))


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

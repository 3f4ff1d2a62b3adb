"""Wigner synthesis from Fock-basis states.

The field of a Fock-basis matrix rho is separable in Hermite-Gauss
modes,

    W(q, p) = pi^-1/2 sum_{j,k < 2 dim - 1} D_jk phi_j(sqrt2 q) phi_k(sqrt2 p),

with phi_n the normalised Hermite functions.  The coefficients D come
from rho through the 50:50 beam splitter that takes the Weyl kernel
<q-y|rho|q+y> from the coordinates (q - y, q + y) to (q, y), built one
photon at a time in O(dim^3) (see ``_coefficients``); the beam-splitter
blocks depend on dim alone, so a process builds them once, for the largest
dim up to a memory ceiling (``_block_levels``).  Then W is A_q D A_p^T
against Hermite tables A[i, j] = phi_j(sqrt2 x_i) from the shared
three-term recurrence of ``numerics``.  Grid axes centred on 0 are
mirrored bit for bit and phi_j(-x) = (-1)^j phi_j(x), so the tables hold
x >= 0 and each product is E + O at x, E - O at -x, with E and O the sums
over the even and the odd orders: half the flops of a whole GEMM.  The
rounding bound is computed on one quadrant.  The rank is 2 dim - 1 for
any rho, pure or mixed, and nothing is sampled but the grid itself.  The
analytic gradient uses phi_n' = sqrt(n/2) phi_{n-1} - sqrt((n+1)/2)
phi_{n+1}, one order above D and of the opposite parity.  The
finite-difference check samples q - h and q + h on a sub-lattice as one
mirrored axis, with no field-sized synthesis.

The map is linear, so an anti-Hermitian part of the input gives an
imaginary field.  It is synthesized and its residue checked, never
silently discarded, unless a bound from the entries proves it below
the residue tolerance.

Every integral of a sampled field -- the mass check, the moments,
-int W ln|W| and the negative volume -- comes from one quadrature pass
(``_quadrature``).
"""

import threading

import numpy as np

from .errors import ConsistencyError, NormalizationError, NumericalError
from .fock import as_density, state_moments
from .numerics import PhaseSpaceGrid, _three_term, axis_weights, integrate

__all__ = [
    "WignerField",
    "GaussianMoments",
    "default_grid",
    "wigner_from_fock",
    "wigner_gradient",
    "moments",
    "negative_volume",
]

#: imaginary residue above this is a consistency failure (non-Hermitian input)
IMAG_RESIDUE_HARD = 1e-9

#: a field whose quadrature mass misses 1 by more than this is rejected
MASS_TOL = 1e-4

#: below this magnitude the integrand W ln|W| is taken at its limit, zero
ENTROPY_FLOOR = 1e-30


class GaussianMoments:
    """First and second quadrature moments (d, V) in qqpp ordering."""

    def __init__(self, d, V):
        self.d = np.asarray(d, dtype=float).reshape(-1)
        self.V = np.asarray(V, dtype=float)
        n = self.d.size
        if self.V.shape != (n, n) or n % 2 != 0:
            raise ValueError("moments need a 2N vector and matching square matrix")

    @property
    def n_modes(self):
        return self.d.size // 2

    def validate(self, physical=False, tol=1e-6):
        if not (np.all(np.isfinite(self.d)) and np.all(np.isfinite(self.V))):
            raise ValueError("moments have non-finite entries")
        if np.max(np.abs(self.V - self.V.T)) > 1e-10:
            raise ValueError("covariance matrix not symmetric")
        ev = np.linalg.eigvalsh(self.V)
        if ev.min() <= 0.0:
            raise ValueError("covariance matrix not positive definite")
        if physical and np.linalg.det(self.V) < 0.25**self.n_modes - tol:
            raise ValueError(
                f"det V = {np.linalg.det(self.V):.6f} violates the uncertainty bound"
            )
        return self


class WignerField:
    """Sampled Wigner function, optionally with analytic gradient fields."""

    def __init__(self, grid, values, grad_q=None, grad_p=None):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError("field values do not match the grid shape")
        self.grid = grid
        self.values = values
        self.grad_q = grad_q
        self.grad_p = grad_p

    def integral(self):
        return integrate(self.values, self.grid)

    @property
    def has_gradient(self):
        return self.grad_q is not None and self.grad_p is not None


#: unit roundoff of float64
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0

#: margin added to the turning radius sqrt(2k + 1) of phi_k: past it
#: phi_k is below 1e-36 (1.5e-37 at k = 0, less at higher orders)
SUPPORT_MARGIN = 12.0

#: the gradient check samples every _CHECK_STRIDE-th point, +- _CHECK_STEP
_CHECK_STRIDE, _CHECK_STEP = 8, 1e-5

#: cells per block of a sweep over a field's q rows: 64 rows of a 513-point
#: grid, 256 KiB, so a block and its buffers stay in cache
_BLOCK_CELLS = 64 * 513


def _row_blocks(shape, floats, cells=_BLOCK_CELLS):
    """Per block of q rows: its slice, views of reused float buffers, a bool one."""
    # blocks of even size: a short last one would cost a pass's overhead
    step = -(-shape[0] // max(1, shape[0] * shape[1] // cells))
    bufs = (*np.empty((floats, step, shape[1])), np.empty((step, shape[1]), bool))
    for i in range(0, shape[0], step):
        n = min(step, shape[0] - i)
        yield (slice(i, i + n), *(b[:n] for b in bufs))


def _require_finite(values, label):
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{label} has non-finite entries")


def _hermite_functions(x, n):
    """Table of phi_0(x) .. phi_{n-1}(x), the normalised Hermite functions.

    The recurrence's seed phi_0 = pi^-1/4 e^{-x^2/2} underflows past
    |x| ~ 37.6 while phi_k is O(1) out to its turning point sqrt(2k + 1):
    there it enters ``_three_term`` as a mantissa and a binary exponent.
    Past SUPPORT_MARGIN beyond the last turning point the table is 0.
    """
    seed = np.pi**-0.25 * np.exp(-0.5 * x * x)
    exp = np.zeros_like(seed)
    # the cut and the underflow both lie where phi_0 < 1.5e-37 (|x| > 13)
    tail = np.flatnonzero(seed < 1e-36)
    if tail.size:
        inside = np.abs(x[tail]) < np.sqrt(2.0 * n - 1.0) + SUPPORT_MARGIN
        seed[tail[~inside]] = 0.0
        far = tail[inside & (seed[tail] < np.finfo(float).tiny)]
        # e^{-h} = e^{m ln2 - h} 2^-m, ln 2 split in two (Cody-Waite)
        half = 0.5 * x[far] ** 2
        m = np.ceil(half / np.log(2.0))
        lo = m * 1.9082149292705877e-10
        seed[far] = np.pi**-0.25 * np.exp(m * 0.6931471803691238 - half + lo)
        exp[far] = -m
    k = np.arange(1.0, n)
    return _three_term(x, seed, exp, np.sqrt(2.0 / k), np.sqrt((k - 1.0) / k), n)


def _beam_splitter_rows(dim):
    """Rows (m, n), m <= n < dim, of the 50:50 beam-splitter blocks B^N.

    The beam splitter maps the two-mode state |m, n> into span{|j, N - j>}
    for N = m + n, through an orthogonal block B^N.  Yields (N, rows) for
    N = 0 .. 2 dim - 2, rows[i] being row (lo + i, N - lo - i) of B^N with
    lo = max(0, N - dim + 1), over j = 0 .. N // 2, each level in a fresh
    array that no later level changes.  The other
    half follows by swapping the output modes, row(m, n)[N - j] =
    (-1)^m row(m, n)[j], and the rows with m > n by swapping the input
    modes, row(n, m)[j] = (-1)^(N - j) row(m, n)[j].

    A row comes from level N - 1 one photon at a time,
    row(m, n) = [sqrt(m) A+ row(m-1, n) + sqrt(n) B+ row(m, n-1)] / N, where
    A+ = (S+ - T+)/sqrt2 and B+ = (S+ + T+)/sqrt2 are the input modes'
    creation operators and S+, T+ those of the output modes, which add a
    photon to j and to N - j respectively.  This symmetric form keeps B^N
    orthogonal to rounding; the one-sided one (A+ only) loses it by
    N ~ 80.
    """
    size = 2 * dim - 1
    root = np.sqrt(np.arange(size + 1.0))
    sign = np.ones(size)
    sign[1::2] = -1.0
    lift, drop = np.empty((dim, dim)), np.empty((dim, dim))
    # level N - 1 with m counted from lo_prev; odd levels carry a spare column
    prev = np.ones((1, 1))
    lo_prev = 0
    yield 0, prev
    for N in range(1, size):
        lo, hi = max(0, N - dim + 1), N // 2
        r, cols = hi - lo + 1, hi + 1
        if N % 2 == 0:
            # column N/2 of level N - 1, its spare one, mirrors its column N/2 - 1
            r_prev = hi - lo_prev
            np.multiply(prev[:r_prev, hi - 1], sign[lo_prev:hi], out=prev[:r_prev, hi])
        scale = 1.0 / (N * np.sqrt(2.0))
        # sqrt(n) row(m, n - 1), stored for m < n; row(m, m - 1) by reflection
        u = lift[:r, :cols]
        top = min(r, (N + 1) // 2 - lo)
        src = prev[lo - lo_prev : lo - lo_prev + top, :cols]
        np.multiply(scale * root[N - lo : N - lo - top : -1, None], src, out=u[:top])
        if top < r:
            np.multiply(prev[hi - 1 - lo_prev, :cols], sign[N - cols : N][::-1], out=u[top])
            u[top] *= scale * root[N - hi]
        # sqrt(m) row(m - 1, n)
        v = drop[:r, :cols]
        first = 1 if lo == 0 else 0
        src = prev[lo + first - 1 - lo_prev : hi - lo_prev, :cols]
        np.multiply(scale * root[lo + first : hi + 1, None], src, out=v[first:])
        v[:first] = 0.0
        # T+ (u - v) + S+ (u + v), the 1/(N sqrt2) already in u and v
        level = np.empty((r, cols + N % 2))
        new = level[:, :cols]
        np.subtract(u, v, out=new)
        new *= root[N - cols + 1 : N + 1][::-1]
        u += v
        u[:, : cols - 1] *= root[1:cols]
        new[:, 1:] += u[:, : cols - 1]
        yield N, new
        prev, lo_prev = level, lo


#: ceiling on the cells of cached beam-splitter rows: 16 MiB, reached near
#: dim 202 (dim 161 takes 8 MiB); a larger dim streams through the recurrence
_BLOCK_CACHE_CELLS = 2**21

#: (dim, levels): the rows _beam_splitter_rows(dim) yields, for the largest
#: dim seen within the ceiling.  Growth builds a new tuple and swaps this
#: one reference, so a reader that loads it once sees a whole cache.
_blocks = (0, ())
_blocks_growth = threading.Lock()


def _block_cells(dim):
    """Cells of the level arrays _beam_splitter_rows(dim) allocates."""
    N = np.arange(2 * dim - 1)
    rows = N // 2 - np.maximum(N - dim + 1, 0) + 1
    return int(np.sum(rows * (N // 2 + 1 + N % 2)))


def _block_levels(dim):
    """(N, rows) as _beam_splitter_rows(dim) yields them, cached if they fit.

    A row of B^N does not depend on dim, and no row is computed from a
    row beside it, so a smaller dim's level N is, bit for bit, the cached
    level's rows from its own lo = max(0, N - dim + 1) on.
    """
    global _blocks
    cached = _blocks
    if cached[0] < dim:
        if _block_cells(dim) > _BLOCK_CACHE_CELLS:
            return _beam_splitter_rows(dim)
        with _blocks_growth:
            cached = _blocks
            if cached[0] < dim:
                levels = tuple(rows for _, rows in _beam_splitter_rows(dim))
                cached = _blocks = (dim, levels)
    top, levels = cached
    return (
        (N, levels[N][max(0, N - dim + 1) - max(0, N - top + 1) :])
        for N in range(2 * dim - 1)
    )


def _coefficients(c, anti):
    """Hermite-Gauss coefficients D of the Fock-basis matrix c.

    W(q, p) = pi^-1/2 sum_jk D_jk phi_j(sqrt2 q) phi_k(sqrt2 p), with D
    real for the Hermitian part of c; with ``anti`` the anti-Hermitian
    part's D (its imaginary field) is returned too, as D[1].

    At s = sqrt2 q and t = sqrt2 y the kernel <q-y|c|q+y> is
    sum c_mn phi_m((s-t)/sqrt2) phi_n((s+t)/sqrt2): the two-mode state
    |m, n> seen through a 50:50 beam splitter, sum_j B^N[(m, n), j]
    phi_j(s) phi_{N-j}(t).  The y -> p transform maps phi_k(t) to
    sqrt(pi) i^k phi_k(sqrt2 p), so D_jk = i^k C_jk with
    C_jk = sum_{m+n=j+k} c_mn B^N[(m, n), j].  By the reflection
    B^N[(n, m), j] = (-1)^k B^N[(m, n), j], the pair (m, n), (n, m) enters
    through c_mn + c_nm at even k and c_mn - c_nm at odd k, and by
    B^N[(m, n), N - j] = (-1)^m B^N[(m, n), j] the same weights times (-1)^m
    give the columns past N/2: a level is one real product of those
    weight sets with the rows m <= n over j <= N/2.
    """
    dim = c.shape[0]
    size = 2 * dim - 1
    even = c + c.T
    even[np.diag_indices(dim)] *= 0.5
    odd = c - c.T
    parts = (even.real, odd.imag) + ((even.imag, odd.real) if anti else ())
    # pair weights in level order: N = m + n, then m
    m, n = np.triu_indices(dim)
    order = np.lexsort((m, m + n))
    pairs = (m * dim + n)[order]
    weights = np.stack([part.ravel()[pairs] for part in parts])
    start = np.concatenate(([0], np.cumsum(np.bincount(m + n, minlength=size))))
    D = np.zeros((len(parts) // 2, size, size))
    # antidiagonal N of D, entries D[j, N - j], is a strided slice of D.flat
    flat = D.reshape(len(D), -1)
    step = max(size - 1, 1)
    # the same weights with (-1)^m give columns N - j of B^N from column j
    sets = len(parts)
    weights = np.vstack((weights, weights * (-1.0) ** m[order]))
    for N, rows in _block_levels(dim):
        vals = weights[:, start[N] : start[N + 1]] @ rows
        cols = rows.shape[1]
        line = flat[:, N : N * size + 1 : step]
        mirror = line[:, ::-1]
        # C from the even weights where k = N - j is even, else the odd ones
        line[:, N % 2 : cols : 2] = vals[0:sets:2, N % 2 :: 2]
        line[:, 1 - N % 2 : cols : 2] = vals[1:sets:2, 1 - N % 2 :: 2]
        mirror[:, 0:cols:2] = vals[sets::2, 0::2]
        mirror[:, 1:cols:2] = vals[sets + 1 :: 2, 1::2]
    # D_jk = i^k C_jk: Re and Im of i^k cycle through the odd and even
    # weight sets, whose products with B^N are real
    quarter = np.arange(size) % 4
    D[0] *= np.where((quarter == 1) | (quarter == 2), -1.0, 1.0)
    if anti:
        D[1] *= np.where(quarter >= 2, -1.0, 1.0)
    return D


def _parity_product(T, Y, h, odd, out, finish=None, cells=_BLOCK_CELLS):
    """out = A^T Y for A the table on the axis x, T its columns on x[h:].

    x[:h] is -x[h + c:] reversed (c = n - 2h).  With E and O the sums over
    the even and the odd orders, row x is E + O and row -x E - O (O - E if
    ``odd``, for derivatives).  By blocks of x[h:], E goes into out, O and
    E - O into reused buffers; ``finish(rows, block, mirrored, first, *bufs)``
    may work on a block in cache (rows from ``first`` on have mirrors) with
    O's buffer, now free, and two more: a float one and a bool one.
    """
    c = out.shape[0] - 2 * h
    base, mirror = out[h:], out[:h][::-1]
    (Te, To), (Ye, Yo) = (T[0::2].T, T[1::2].T), (Y[0::2], Y[1::2])
    for rows, other, diff, *bufs in _row_blocks((T.shape[1], out.shape[1]), 3, cells):
        block = base[rows]
        np.matmul(Te[rows], Ye, out=block)
        np.matmul(To[rows], Yo, out=other)
        first = max(rows.start, c) - rows.start
        np.subtract(*(block[first:], other[first:])[:: 1 - 2 * odd], out=diff[first:])
        block += other
        if finish:
            finish(rows, block, diff[first:], first, other, *bufs)
        mirror[rows.start + first - c : rows.stop - c] = diff[first:]


def _fields(D, q, p, with_grad, bound=None):
    """[W] or [W, dW/dq, dW/dp] of the coefficients D on the q and p axes.

    W = A_q D A_p^T / sqrt(pi) with A[i, j] = phi_j(sqrt2 x_i), both products
    split by parity; gradients use dphi_n/dx = sqrt(n/2) phi_{n-1} -
    sqrt((n+1)/2) phi_{n+1}, one order above D.  Values of W inside
    gamma (|A_q| |D| |A_p|^T) / sqrt(pi), the products' own rounding bound
    (each entry still sums size products per product, in another order),
    carry no sign and are set to 0; ``bound``, if given, receives it.
    """
    size = D.shape[0]
    orders = size + 1 if with_grad else size
    # h points of an axis mirror its last h, x[i] = -x[n-1-i] bit for bit
    hq, hp = (x.size // 2 if (x == -x[::-1]).all() else 0 for x in (q, p))
    uq, cq, cp = q.size - hq, q.size - 2 * hq, p.size - 2 * hp
    table = _hermite_functions(np.sqrt(2.0) * np.concatenate((q[hq:], p[hp:])), orders)
    Tq, Tp = table[:size, :uq], table[:size, uq:]
    Dt = np.ascontiguousarray(D.T) / np.sqrt(np.pi)
    # inner = D A_p^T, (2 dim - 1) x n_p, is one block
    inner = np.empty((size, p.size))
    _parity_product(Tp, Dt, hp, False, inner.T, cells=inner.size)
    n_terms = 2 * size
    gamma = n_terms * _UNIT_ROUNDOFF / (1.0 - n_terms * _UNIT_ROUNDOFF)
    spread = np.abs(Dt).T @ np.abs(Tp)
    spread *= gamma
    abs_q = np.abs(Tq.T)

    # the bound is even in q and p: one quadrant serves the four
    def drop_rounding(rows, block, mirrored, first, mag, row_bound, mask):
        np.matmul(abs_q[rows], spread, out=row_bound[:, hp:])
        row_bound[:, :hp][:, ::-1] = row_bound[:, hp + cp :]
        for cells, k in ((block, 0), (mirrored, first)):
            np.less_equal(np.abs(cells, out=mag[k:]), row_bound[k:], out=mask[k:])
            if mask[k:].any():
                np.copyto(cells, 0.0, where=mask[k:])
        if bound is not None:
            bound[hq:][rows] = row_bound

    # field-sized temporaries would be faulted in and freed on every call
    W = np.empty((q.size, p.size))
    _parity_product(Tq, inner, hq, False, W, drop_rounding)
    if bound is not None:
        bound[:hq] = bound[hq + cq :][::-1]
    fields = [W]
    if with_grad:
        # d/dq phi_n(sqrt2 q) = sqrt(n) phi_{n-1} - sqrt(n+1) phi_{n+1}
        root = np.sqrt(np.arange(orders, dtype=float))[:, None]
        deriv = root[:size] * np.vstack((np.zeros_like(table[:1]), table[: size - 1]))
        deriv -= root[1:] * table[1:]
        fields += [np.empty_like(W), np.empty_like(W)]
        _parity_product(deriv[:, :uq], inner, hq, True, fields[1])
        _parity_product(deriv[:, uq:], Dt, hp, True, inner.T, cells=inner.size)  # D dA_p^T
        _parity_product(Tq, inner, hq, False, fields[2])
    return fields


def _synthesize(c, grid, with_grad):
    """Wigner field of the Fock-basis matrix c on the grid's q and p axes.

    Returns [W] or [W, dW/dq, dW/dp].  The map is linear, so an
    anti-Hermitian part of c gives the imaginary part of each field; it
    is synthesized, for the caller's residue check, unless its trace
    norm, which bounds pi |W| pointwise, already proves the residue below
    IMAG_RESIDUE_HARD.
    """
    _require_finite(c, "density matrix")
    q = np.asarray(grid.q, dtype=float)
    p = np.asarray(grid.p, dtype=float)
    # |W_a| <= ||a||_1 / pi <= sum |a_mn| / pi for a = (c - c^+) / 2i
    anti = np.sum(np.abs(c - c.conj().T)) / (2.0 * np.pi) > IMAG_RESIDUE_HARD
    D = _coefficients(c, anti)
    fields = _fields(D[0], q, p, with_grad)
    if anti:
        imag = _fields(D[1], q, p, with_grad)
        fields = [re + 1j * im for re, im in zip(fields, imag)]
    for f in fields:
        _require_finite(f, "synthesized Wigner field")
    return fields


def _real_part(field, label):
    if not np.iscomplexobj(field):
        return field
    residue = np.max(np.abs(field.imag))
    if not residue <= IMAG_RESIDUE_HARD:
        raise ConsistencyError(
            f"{label} has imaginary residue {residue:.3e} > {IMAG_RESIDUE_HARD:.0e}; "
            "the input is effectively non-Hermitian"
        )
    return field.real


def default_grid(state, points=513, sigmas=5.5):
    """Auto-sized grid from the state's operator-trace moments."""
    mean, cov = state_moments(state)
    return PhaseSpaceGrid.for_moments(mean, cov, points=points, sigmas=sigmas)


def wigner_from_fock(rho, grid=None, points=513):
    """Synthesize the Wigner field of a Fock-basis state."""
    rho = as_density(rho)
    if grid is None:
        grid = default_grid(rho, points=points)
    (W,) = _synthesize(rho.entries, grid, with_grad=False)
    return WignerField(grid, _real_part(W, "Wigner field"))


def wigner_gradient(rho, grid=None, points=513, check=True):
    """Wigner field with analytic (dW/dq, dW/dp), finite-difference checked.

    The check evaluates W's Hermite-Gauss expansion on a coarse sub-lattice
    shifted by ±h and compares central differences with the analytic
    gradient; disagreement beyond 1e-5 relative, plus the synthesis
    rounding bound over 2h, where |W| > 1e-6 raises.  `check=False` skips it
    (the formula is unchanged; useful inside tight sweeps).
    """
    rho = as_density(rho)
    if grid is None:
        grid = default_grid(rho, points=points)
    W, gq, gp = _synthesize(rho.entries, grid, with_grad=True)
    field = WignerField(
        grid,
        _real_part(W, "Wigner field"),
        grad_q=_real_part(gq, "gradient (q)"),
        grad_p=_real_part(gp, "gradient (p)"),
    )
    if check:
        _check_gradient(rho, field)
    return field


def _check_gradient(rho, field):
    stride, h = _CHECK_STRIDE, _CHECK_STEP
    qs = field.grid.q[::stride]
    ps = field.grid.p[::stride]
    mask = np.abs(field.values[::stride, ::stride]) > 1e-6
    if not np.any(mask):
        return
    D = _coefficients(rho.entries, False)[0]
    fd, dev = [], []
    # W(q, p) from D is W(p, q) from D^T: the shifted axis goes first, as
    # xs -+ h interleaved, which is mirrored if xs is: -(x_i + h) = x_{m-i} - h
    for grad, C, xs, ys in ((field.grad_q, D, qs, ps), (field.grad_p.T, D.T, ps, qs)):
        shifted = np.column_stack((xs - h, xs + h)).ravel()
        bounds = np.empty((shifted.size, ys.size))
        (W,) = _fields(C, shifted, ys, False, bounds)
        fd.append((W[1::2] - W[0::2]) / (2.0 * h))
        # both samples are within their rounding bounds, so the central
        # difference is within their sum over 2h
        slack = (bounds[0::2] + bounds[1::2]) / (2.0 * h)
        dev.append(np.abs(grad[::stride, ::stride] - fd[-1]) - slack)
    fd[1], dev[1] = fd[1].T, dev[1].T
    scale = np.maximum(np.maximum(np.abs(fd[0]), np.abs(fd[1])), 1e-6)
    worst = np.max((np.maximum(dev[0], dev[1]) / scale)[mask])
    if not worst <= 1e-5:
        raise ConsistencyError(
            f"analytic gradient deviates from finite differences by {worst:.3e} "
            "(relative) beyond their rounding on the checked sub-lattice"
        )


def _quadrature(field):
    """(moments, -int W ln|W|, int max(-W, 0)) of a field, in one pass.

    The weights are an outer product wq wp^T (composite Simpson), so the
    mass and the marginals are matvecs and each integral is wq @ f @ wp:
    one sweep of q-row blocks through reused buffers takes the marginals
    and the row integrals of the entropy integrand and the negative part
    (the cross moment reads the field again).  A mass off 1 by more than
    MASS_TOL (or NaN) raises; the callers validate the moments.
    """
    W, grid = field.values, field.grid
    wq = axis_weights(grid.n_q, grid.dq)
    wp = axis_weights(grid.n_p, grid.dp)
    marg_q, ent_rows, neg_rows = np.empty((3, grid.n_q))
    marg_p = np.zeros(grid.n_p)
    for rows, b, tiny in _row_blocks(W.shape, 1):
        block = W[rows]
        np.matmul(block, wp, out=marg_q[rows])
        marg_p += wq[rows] @ block
        # ln 1 = 0 puts the integrand at its limit below the floor
        np.less(np.abs(block, out=b), ENTROPY_FLOOR, out=tiny)
        np.copyto(b, 1.0, where=tiny)
        np.log(b, out=b)
        b *= block
        np.matmul(b, wp, out=ent_rows[rows])
        np.matmul(np.minimum(block, 0.0, out=b), wp, out=neg_rows[rows])
    mass = float(wq @ marg_q)
    if not abs(mass - 1.0) <= MASS_TOL:
        raise NormalizationError(
            f"field mass {mass:.6f} deviates from 1 beyond {MASS_TOL:.0e}"
        )
    dq = float((wq * grid.q) @ marg_q)
    dp = float(marg_p @ (wp * grid.p))
    cq, cp = grid.q - dq, grid.p - dp
    vqq = float((wq * cq * cq) @ marg_q)
    vpp = float(marg_p @ (wp * cp * cp))
    vqp = float((wq * cq) @ W @ (wp * cp))
    m = GaussianMoments([dq, dp], [[vqq, vqp], [vqp, vpp]])
    # 0.0 - x, not -x: an all-zero negative part must come out +0.0
    return m, -float(wq @ ent_rows), 0.0 - float(wq @ neg_rows)


def moments(field, physical=True):
    """Quadrature moments of a normalized field.

    ``physical=False`` skips the uncertainty-bound check, for fields that
    are legitimate densities but not state Wigner functions (for example
    rescaled ones).
    """
    return _quadrature(field)[0].validate(physical=physical)


def _covariance_det(V):
    """det V, which must be positive (a NaN determinant is not)."""
    with np.errstate(invalid="ignore"):
        det = np.linalg.det(V)
    if not det > 0.0:
        raise np.linalg.LinAlgError("covariance matrix is singular")
    return det


def negative_volume(field):
    """|V_-| = (1/2) integral of (|W| - W), the mass of the negative part."""
    return _quadrature(field)[2]

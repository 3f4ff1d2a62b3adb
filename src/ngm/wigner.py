"""Wigner synthesis from Fock-basis states.

The field of a Fock-basis matrix rho is separable in Hermite-Gauss
modes,

    W(q, p) = pi^-1/2 sum_{j,k < 2 dim - 1} D_jk phi_j(sqrt2 q) phi_k(sqrt2 p),

with phi_n the normalised Hermite functions.  The coefficients D come
from rho through the 50:50 beam splitter that takes the Weyl kernel
<q-y|rho|q+y> from the coordinates (q - y, q + y) to (q, y), built one
photon at a time in O(dim^3) and applied 16 levels per batched product
(see ``_coefficients``); no block depends on dim, so a process builds
them once, as zero-padded stacks of 16 levels for the largest dim up to a
memory ceiling (``_block_stacks``).  Then W is A_q D A_p^T
against Hermite tables A[i, j] = phi_j(sqrt2 x_i) from the shared
three-term recurrence of ``numerics``; the same recurrence gives the tables
dilated and smoothed, so a Gaussian map of W is the same product with
other tables (``_hermite_functions``).  Grid axes centred on 0 are
mirrored bit for bit and phi_j(-x) = (-1)^j phi_j(x), so the tables hold
x >= 0 and each product is E + O at x, E - O at -x, with E and O the sums
over the even and the odd orders: half the flops of a whole GEMM, with the
rounding bound from one quadrant.  Where D's rows (q) or columns (p) of
one order parity are exactly 0 (a real state's odd columns; a cat's, |n>'s
or a GKP state's odd rows too), E or O is 0 and W has one parity: the
products and the rounding drop run on x >= 0 only, and the field holds
that block (``WignerField``) for good: a caller that reads the grid-shaped
arrays gets a copy, the block's signed mirror at x < 0.  The rank is
2 dim - 1 for any rho, pure or mixed, and nothing is sampled but the grid
itself.  The analytic gradient uses phi_n' = sqrt(n/2) phi_{n-1} -
sqrt((n+1)/2) phi_{n+1}, one order above D and of the opposite parity.
The finite-difference check samples q - h and q + h on a sub-lattice as
one mirrored axis, with no field-sized synthesis.

Every field is real.  The map is linear, so a non-Hermitian input c has
W[c] = W[h] + i W[a] for the Hermitian h = (c + c^+)/2 and a = (c - c^+)/2i:
D is h's, and the imaginary field is the real synthesis of a, run and its
residue checked, never silently discarded, unless a bound from the entries
proves it below the residue tolerance.  A state is expanded once
(``_expand``) into D, the order parities of D's rows and columns (they do
not depend on the grid; a product applies them on a mirrored axis) and the
residue verdict, a's own expansion or none.  Every field of the state is
drawn from that value and carries it: W, its gradients and their check,
the smoothed fields of the Fisher checks, and the phase-space channel's.

Every integral of a sampled field -- the mass check, the moments,
-int W ln|W|, the negative volume and, for a gradient field, the Fisher
sums (``fisher``, each block while in cache) -- comes from one quadrature
pass (``_quadrature``).  A synthesized field carries W's parity per axis,
known from its expansion's parities; along an even axis the pass reads the
block the field holds, x >= 0, with the folded Simpson weights
(a quarter of the grid for a cat, |n> or a GKP state, half for a real
state), and there the mean and the cross moment are 0 exactly.  Any other
field takes the whole grid with the same body.  The gradient check, the
synthesis's finiteness and residue checks and the phase-space channel's
mass check read the block too.
"""

import collections
import functools
import threading

import numpy as np

from .errors import ConsistencyError, NormalizationError, NumericalError
from .fock import as_density, state_moments
from .numerics import _BLOCK_CELLS, PhaseSpaceGrid, _row_blocks, _three_term, axis_weights

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
        if physical:
            with np.errstate(over="ignore"):  # a det V past the float range holds
                det = np.linalg.det(self.V)
            if det < 0.25**self.n_modes - tol:
                raise ValueError(f"det V = {det:.6f} violates the uncertainty bound")
        return self


class WignerField:
    """Sampled Wigner function, optionally with analytic gradient fields;
    it never changes once built.

    ``values``, ``grad_q`` and ``grad_p`` are read-only grid-shaped arrays
    (a gradient may be None); the arrays a field is built from must be real
    and grid-shaped.  A synthesized field whose W has one parity along a
    mirrored axis holds only its cells from the centre on along that axis
    (the block; ``_parity``), which every pass reads.  The first read of
    each of the three unfolds a copy of the block and keeps it: x < 0 is
    the block mirrored with its parity's sign, which flips for the
    derivative along that axis.
    """

    #: (q, p): W's parity (0 even, 1 odd) along each axis the arrays hold
    #: from the centre on, W(-q, p) = +-W(q, p) bit for bit (likewise in
    #: p); None along an axis they hold whole
    _parity = (None, None)
    #: the ``_expand`` value the synthesis drew the field from
    _expansion = None

    def __init__(self, grid, values, grad_q=None, grad_p=None):
        arrays = []
        for value, name in ((values, "field values"), (grad_q, "gradient values grad_q"),
                            (grad_p, "gradient values grad_p")):
            if value is not None or not arrays:  # only a gradient may be None
                if np.iscomplexobj(value):
                    raise ValueError(f"{name} must be real")
                value = np.asarray(value, dtype=float)
                if value.shape != grid.shape:
                    raise ValueError(f"{name} do not match the grid shape")
            arrays.append(value)
        self.grid, self._arrays, self._whole = grid, tuple(arrays), [None] * 3

    values = property(lambda self: self._read(0), doc="W on the grid, read-only")
    grad_q = property(lambda self: self._read(1), doc="dW/dq on the grid, read-only, or None")
    grad_p = property(lambda self: self._read(2), doc="dW/dp on the grid, read-only, or None")

    @property
    def has_gradient(self):
        return self._arrays[1] is not None and self._arrays[2] is not None

    def _read(self, index):
        """Array ``index`` (W, dW/dq, dW/dp) on the whole grid, read-only:
        the held one unfolded on the first read, then kept."""
        if self._whole[index] is None and self._arrays[index] is not None:
            # a view: a whole held array may be the caller's, which stays writable
            whole = _unfolded(self._arrays[index], self.grid.shape, self._parity,
                              (None, 0, 1)[index]).view()
            whole.flags.writeable = False
            self._whole[index] = whole
        return self._whole[index]


def _unfolded(block, shape, fold, odd=None):
    """The array of ``shape`` that ``block`` holds the cells of from the
    centre on along each axis with a parity in ``fold`` (0 even, 1 odd;
    None: all of it): x < 0 is x > 0 mirrored times (-1)^parity, with one
    more flip along the axis ``odd`` (0 q, 1 p) for a derivative along it.
    ``block`` itself if no axis is folded."""
    if fold == (None, None):
        return block
    hq, hp = (n - m for n, m in zip(shape, block.shape))
    sq, sp = (1.0 if f is None else (-1.0) ** (f + (axis == odd)) for axis, f in enumerate(fold))
    out = np.empty(shape)
    out[hq:, hp:] = block
    # a product with +-1 is the signed copy, bit for bit
    np.multiply(out[hq:, shape[1] - hp :][:, ::-1], sp, out=out[hq:, :hp])
    np.multiply(out[shape[0] - hq :][::-1], sq, out=out[:hq])
    return out


#: unit roundoff of float64
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0

#: margin added to the turning radius sqrt(2k + 1) of phi_k: past it
#: phi_k is below 1e-36 (1.5e-37 at k = 0, less at higher orders)
SUPPORT_MARGIN = 12.0

#: the gradient check samples every _CHECK_STRIDE-th point, +- _CHECK_STEP
_CHECK_STRIDE, _CHECK_STEP = 8, 1e-5

def _require_finite(values, label):
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{label} has non-finite entries")


def _hermite_functions(x, n, tau=1.0, v=0.0):
    """chi_0(x) .. chi_{n-1}(x): the normalised Hermite functions phi_j
    dilated by sqrt(tau) (times 1/sqrt(tau)) and convolved with a Gaussian
    of variance v; phi_j itself, bit for bit, at the defaults.

    With a = tau + v, chi_0 = pi^-1/4 a^-1/2 e^{-x^2/(2a)} and chi_{k+1} =
    (sqrt(tau) x/a) sqrt(2/(k+1)) chi_k - ((tau - v)/a) sqrt(k/(k+1)) chi_{k-1};
    chi_j has the parity of phi_j.  The seed underflows past |x| ~ 37.6 sqrt(a)
    while chi_k is O(1) out to about sqrt(a (2k + 1)): there it enters
    ``_three_term`` as a mantissa and a binary exponent.  Past
    SUPPORT_MARGIN sqrt(a) beyond the last turning point the table is 0.
    """
    a = tau + v
    w = x / np.sqrt(a)
    seed = np.pi**-0.25 * np.exp(-0.5 * w * w)
    exp = np.zeros_like(seed)
    # the cut and the underflow both lie where the seed's e^{-w^2/2} part
    # is below 1.5e-37 (|w| > 13)
    tail = np.flatnonzero(seed < 1e-36)
    if tail.size:
        inside = np.abs(w[tail]) < np.sqrt(2.0 * n - 1.0) + SUPPORT_MARGIN
        seed[tail[~inside]] = 0.0
        far = tail[inside & (seed[tail] < np.finfo(float).tiny)]
        # e^{-h} = e^{m ln2 - h} 2^-m, ln 2 split in two (Cody-Waite)
        half = 0.5 * w[far] ** 2
        m = np.ceil(half / np.log(2.0))
        lo = m * 1.9082149292705877e-10
        seed[far] = np.pi**-0.25 * np.exp(m * 0.6931471803691238 - half + lo)
        exp[far] = -m
    seed /= np.sqrt(a)
    k = np.arange(1.0, n)
    back = (tau - v) / a * np.sqrt((k - 1.0) / k)
    return _three_term(np.sqrt(tau) * x / a, seed, exp, np.sqrt(2.0 / k), back, n)


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


#: levels per bucket: a bucket's levels are one batched product
_BUCKET = 16

#: ceiling on the cells of cached bucket stacks: 16 MiB, which holds dim
#: 195 (dim 161 takes 9.2 MiB); a larger dim streams its buckets
_BLOCK_CACHE_CELLS = 2**21

#: (dim, stacks, order): _bucket_stacks(dim) and _cell_order(2 dim - 1) for
#: the largest dim seen within the ceiling.  Growth builds a new tuple and
#: swaps this one reference, so a reader that loads it once sees a whole cache.
_blocks = (0, ())
_blocks_growth = threading.Lock()


@functools.lru_cache(maxsize=8)
def _bucket_maps(dim):
    """(shapes, pick, first, start) of dim's buckets of _BUCKET levels N:
    (levels, rows, columns) of each zero-padded stack (the most rows (m, n)
    of a level, the last one's j <= N/2); per stack row the pair m dim + n
    whose weights it takes (dim^2, zero weights, for padding); where each
    bucket's products start in a buffer that opens with 4 size zeros; and
    where each level's do (0 from N = size on)."""
    size = 2 * dim - 1
    shapes, pick, first, start = [], [], [4 * size], []
    for b in range(0, size, _BUCKET):
        N = np.arange(b, min(b + _BUCKET, size))[:, None]
        lo = np.maximum(N - dim + 1, 0)
        shapes.append((N.size, int(np.max(N // 2 - lo)) + 1, int(N[-1, 0]) // 2 + 1))
        m = N // 2 + np.arange(1 - shapes[-1][1], 1)
        pick.append(np.where(m >= lo, m * dim + N - m, dim * dim).ravel())
        start.append(first[-1] + 4 * shapes[-1][2] * np.arange(N.size))
        first.append(first[-1] + 4 * N.size * shapes[-1][2])
    return shapes, np.concatenate(pick), first, np.concatenate(start + [np.zeros(size - 1, int)])


def _bucket_stacks(dim):
    """Per bucket, the rows of _beam_splitter_rows(dim) in one zero-padded
    stack [level, row, j], each level's rows in ascending m (the order a
    per-level product sums in) and ending at the stack's last row."""
    levels = _beam_splitter_rows(dim)
    for shape in _bucket_maps(dim)[0]:
        stack = np.zeros(shape)
        for level in stack:
            rows = next(levels)[1]
            level[shape[1] - rows.shape[0] :, : rows.shape[1]] = rows
        yield stack


def _cell_order(size):
    """4 min(j, k) + 2 [k <= j] + k % 2: where D_jk sits among the products
    of its level N = j + k, 4 weight sets per column (see _coefficients)."""
    j, k = np.ogrid[:size, :size]
    return (4 * np.minimum(j, k) + 2 * (k <= j) + k % 2).astype(np.int32)


def _block_stacks(dim):
    """(_bucket_stacks(dim), _cell_order(2 dim - 1)), cached if they fit.

    A row of B^N does not depend on dim and no row is computed from a row
    beside it, so a smaller dim's rows of level N are, bit for bit, the
    last ones of the cached level.  A view has the shape of
    _bucket_stacks(dim): no product depends on which dim was cached.
    """
    global _blocks
    cached, shapes, size = _blocks, _bucket_maps(dim)[0], 2 * dim - 1
    if cached[0] < dim:
        if sum(n * rows * cols for n, rows, cols in shapes) > _BLOCK_CACHE_CELLS:
            return _bucket_stacks(dim), _cell_order(size)
        with _blocks_growth:
            cached = _blocks
            if cached[0] < dim:
                cached = _blocks = (dim, tuple(_bucket_stacks(dim)), _cell_order(size))
    stacks = (s[:n, len(s[0]) - rows :, :cols] for s, (n, rows, cols) in zip(cached[1], shapes))
    return stacks, cached[2][:size, :size]


def _coefficients(c):
    """Hermite-Gauss coefficients D of the Hermitian part of the Fock-basis
    matrix c, one real plane.

    W(q, p) = pi^-1/2 sum_jk D_jk phi_j(sqrt2 q) phi_k(sqrt2 p).  D reads
    only Re(c + c^T) and Im(c - c^T), which the anti-Hermitian part of c
    leaves out: the imaginary field of c is the real field of
    (c - c^+) / 2i, itself Hermitian (see ``_expand``).

    At s = sqrt2 q and t = sqrt2 y the kernel <q-y|c|q+y> is
    sum c_mn phi_m((s-t)/sqrt2) phi_n((s+t)/sqrt2): the two-mode state
    |m, n> seen through a 50:50 beam splitter, sum_j B^N[(m, n), j]
    phi_j(s) phi_{N-j}(t).  The y -> p transform maps phi_k(t) to
    sqrt(pi) i^k phi_k(sqrt2 p), so D_jk = i^k C_jk with
    C_jk = sum_{m+n=j+k} c_mn B^N[(m, n), j].  By the reflection
    B^N[(n, m), j] = (-1)^k B^N[(m, n), j], the pair (m, n), (n, m) enters
    through c_mn + c_nm at even k and c_mn - c_nm at odd k, and by
    B^N[(m, n), N - j] = (-1)^m B^N[(m, n), j] the same weights times (-1)^m
    give the columns past N/2 (the mirror): a level is one real product of
    those 4 weight sets with the rows m <= n over j <= N/2, and a bucket of
    levels one batched product over its zero-padded stack, a padded row
    taking zero weights.  D is gathered from the products in one pass.
    """
    dim = c.shape[0]
    size = 2 * dim - 1
    even = c + c.T
    even[np.diag_indices(dim)] *= 0.5
    odd = c - c.T
    # weight sets even, odd, then both times (-1)^m (for the mirror); a
    # last row of zeros for padded rows
    table = np.zeros((dim * dim + 1, 4))
    cells = table[:-1].reshape(dim, dim, 4)
    for i, part in enumerate((even.real, odd.imag)):
        cells[..., i] = part
        np.multiply(part, (-1.0) ** np.arange(dim)[:, None], out=cells[..., i + 2])
    shapes, pick, first, start = _bucket_maps(dim)
    stacks, order = _block_stacks(dim)
    weights = np.take(table, pick, axis=0)
    # per level and column j <= N/2, the 4 sets' products
    out = np.empty(first[-1])
    out[: first[0]] = slot = 0
    for (n, rows, cols), stack, at in zip(shapes, stacks, first):
        w = weights[slot : slot + n * rows].reshape(n, rows, 4)
        products = out[at : at + n * cols * 4].reshape(n, cols, 4)
        np.matmul(stack.transpose(0, 2, 1), w, out=products)
        slot += n * rows
    spots = np.add(np.lib.stride_tricks.sliding_window_view(start, size), order)
    D = np.take(out, spots)
    # D_jk = i^k C_jk: Re i^k cycles through the even and odd weight sets'
    # products with B^N, which are real
    quarter = np.arange(size) % 4
    D *= np.where((quarter == 1) | (quarter == 2), -1.0, 1.0)
    # a zero weight times a cached row of another dim may leave -0.0
    D += 0.0
    return D


def _parity_product(T, Y, h, odd, out, finish=None, cells=_BLOCK_CELLS, order=None):
    """out = A^T Y for A the table on the axis x, T its columns on x[h:].

    x[:h] is -x[h + c:] reversed (c = n - 2h).  With E and O the sums over
    the even and the odd orders, row x is E + O and row -x E - O (O - E if
    ``odd``, for derivatives).  By blocks of x[h:], E goes into out, O and
    E - O into reused buffers; ``finish(rows, block, mirrored, first, *bufs)``
    may work on a block in cache (rows from ``first`` on have mirrors) with
    O's buffer, now free, and two more: a float one and a bool one.  If
    Y's nonzero rows are all of the order parity ``order`` (0 even, 1 odd),
    row -x is +-(row x) and is not computed: out holds x[h:] alone (the
    caller passes h = 0), one product per block, and ``mirrored`` is None.
    """
    c = out.shape[0] - 2 * h
    (Te, To), (Ye, Yo) = (T[0::2].T, T[1::2].T), (Y[0::2], Y[1::2])
    for rows, other, diff, *bufs in _row_blocks((T.shape[1], Y.shape[1]), 3, cells):
        block, first = out[h:][rows], max(rows.start, c) - rows.start
        if order is not None:
            np.matmul((Te, To)[order][rows], (Ye, Yo)[order], out=block)
            if finish:
                finish(rows, block, None, first, other, *bufs)
            continue
        np.matmul(Te[rows], Ye, out=block)
        np.matmul(To[rows], Yo, out=other)
        mirrored = diff[first:]
        np.subtract(*(block[first:], other[first:])[:: 1 - 2 * odd], out=mirrored)
        block += other
        if finish:
            finish(rows, block, mirrored, first, other, *bufs)
        out[:h][::-1][rows.start + first - c : rows.stop - c] = mirrored


def _fields(expansion, q, p, with_grad, bound=None, maps=((1.0, 0.0), (1.0, 0.0))):
    """([W] or [W, dW/dq, dW/dp], fold) of an expansion's D on the q and p axes.

    W = A_q D A_p^T / sqrt(pi), A[i, j] = chi_j(sqrt2 x_i) at the (tau, v) of
    ``maps`` per axis (the field dilated by sqrt(tau) and convolved with
    variance v/2; W itself at (1, 0)), both products split by parity.
    Gradients, at (1, 0) only, use dphi_n/dx = sqrt(n/2) phi_{n-1} -
    sqrt((n+1)/2) phi_{n+1}, one order above D.  Values of W inside
    gamma (|A_q| |D| |A_p|^T) / sqrt(pi), the products' own rounding bound
    (each entry still sums size products per product, in another order),
    carry no sign and are set to 0; ``bound``, if given, receives it on the
    whole grid.  On a mirrored axis where D's nonzero rows (q) or columns
    (p) are all of one order parity, W has that parity and the fields are
    computed and returned on x >= 0 only: ``fold`` gives, per axis, that
    parity (see ``_unfolded``), else None.
    """
    size = expansion.D.shape[0]
    orders = size + 1 if with_grad else size
    # h points of an axis mirror its last h, x[i] = -x[n-1-i] bit for bit
    hq, hp = (x.size // 2 if (x == -x[::-1]).all() else 0 for x in (q, p))
    uq = q.size - hq
    # the expansion's order parities, on the mirrored axes
    pq, pp = (o if h else None for o, h in zip(expansion.parity, (hq, hp)))
    # the fields start at x[h] along a folded axis; the products mirror the others
    fq, fp = (0 if o is None else h for o, h in ((pq, hq), (pp, hp)))
    # one table for both axes where their maps agree
    axes = [np.concatenate((q[hq:], p[hp:]))] if maps[0] == maps[1] else (q[hq:], p[hp:])
    tables = [_hermite_functions(np.sqrt(2.0) * x, orders, *m) for x, m in zip(axes, maps)]
    table = tables[0] if len(tables) == 1 else np.hstack(tables)
    Tq, Tp = table[:size, :uq], table[:size, uq:]
    Dt = np.ascontiguousarray(expansion.D.T) / np.sqrt(np.pi)
    # inner = D A_p^T on W's columns is one block
    inner = np.empty((size, p.size - fp))
    _parity_product(Tp, Dt, hp - fp, False, inner.T, cells=inner.size, order=pp)
    n_terms = 2 * size
    gamma = n_terms * _UNIT_ROUNDOFF / (1.0 - n_terms * _UNIT_ROUNDOFF)
    # the bound's products skip the orders whose rows or columns of D are 0
    kq, kp = (slice(None) if o is None else slice(o, None, 2) for o in (pq, pp))
    spread = np.abs(Dt[kp, kq]).T @ np.abs(Tp[kp])
    spread *= gamma
    abs_q = np.abs(Tq[kq].T)

    # the bound is even in q and p: one quadrant serves the four
    def drop_rounding(rows, block, mirrored, first, mag, row_bound, mask):
        np.matmul(abs_q[rows], spread, out=row_bound[:, hp - fp :])
        row_bound[:, : hp - fp][:, ::-1] = row_bound[:, p.size - hp :]
        for cells, k in ((block, 0), (mirrored, first)):
            if cells is None:
                continue
            np.less_equal(np.abs(cells, out=mag[k:]), row_bound[k:], out=mask[k:])
            if mask[k:].any():
                np.copyto(cells, 0.0, where=mask[k:])
        if bound is not None:
            bound[hq:][rows, fp:] = row_bound

    # field-sized temporaries would be faulted in and freed on every call
    W = np.empty((q.size - fq, p.size - fp))
    _parity_product(Tq, inner, hq - fq, False, W, drop_rounding, order=pq)
    if bound is not None:
        bound[:hq] = bound[q.size - hq :][::-1]
        bound[:, :fp] = bound[:, p.size - fp :][:, ::-1]
    fields = [W]
    if with_grad:
        # d/dq phi_n(sqrt2 q) = sqrt(n) phi_{n-1} - sqrt(n+1) phi_{n+1}
        root = np.sqrt(np.arange(orders, dtype=float))[:, None]
        deriv = root[:size] * np.vstack((np.zeros_like(table[:1]), table[: size - 1]))
        deriv -= root[1:] * table[1:]
        fields += [np.empty_like(W), np.empty_like(W)]
        _parity_product(deriv[:, :uq], inner, hq - fq, True, fields[1], order=pq)
        # D dA_p^T
        _parity_product(deriv[:, uq:], Dt, hp - fp, True, inner.T, cells=inner.size, order=pp)
        _parity_product(Tq, inner, hq - fq, False, fields[2], order=pq)
    return fields, (pq, pp)


#: a Fock-basis matrix c expanded once for all its fields (``_expand``): D,
#: the order parity (0, 1, or None for both) of D's nonzero rows (q) and
#: columns (p), and a's expansion unless W[a] is proven negligible
_Expansion = collections.namedtuple("_Expansion", "c D parity anti")


def _expand(c):
    """The ``_Expansion`` of the Fock-basis matrix c, which must be finite.

    pi |W[a]| <= ||a||_1 <= sum |a_mn| pointwise, under the table maps too,
    which are channels; dW[a]/dq = W[i[p, a]] (dW/dp likewise with q), and
    ||[p, a]||_1 <= 2 ||p P_dim|| ||a||_1 <= 2 sqrt(2 dim) ||a||_1 on the
    dim-level space a lives in.  a is expanded unless these bounds prove
    W[a] and its gradients within IMAG_RESIDUE_HARD.
    """
    _require_finite(c, "density matrix")
    anti = c - c.conj().T  # 2i a
    bound = np.sum(np.abs(anti)) / (2.0 * np.pi) * (2.0 * np.sqrt(2.0 * c.shape[0]))
    expansion = None
    # a's expansion first, then c's, which holds it
    for m in [c] if bound <= IMAG_RESIDUE_HARD else [anti / 2j, c]:
        D = _coefficients(m)
        D.flags.writeable = False
        parity = tuple(None if M[0::2].any() and M[1::2].any() else int(M[1::2].any())
                       for M in (D, D.T))
        expansion = _Expansion(m, D, parity, expansion)
    return expansion


def _synthesize(c, grid, with_grad):
    """The field of the Fock-basis matrix c on the grid, with gradients if
    ``with_grad``: ``_synthesize_mapped`` of its expansion at the identity
    maps, under the three arguments perfbench's tracer reads."""
    return _synthesize_mapped(_expand(c), grid, with_grad, ((1.0, 0.0), (1.0, 0.0)),
                              "Wigner field")


def _synthesize_mapped(expansion, grid, with_grad, maps, label):
    """The ``WignerField`` of ``_fields`` for an expansion at the table
    ``maps``: it holds the arrays as ``_fields`` returns them, their parity
    per axis as ``_parity`` and the expansion.  Each array is checked
    finite, and the imaginary fields W[a], where the expansion holds a,
    within IMAG_RESIDUE_HARD (else ConsistencyError naming ``label``), on
    the cells computed: the others are their signed mirror.
    """
    q = np.asarray(grid.q, dtype=float)
    p = np.asarray(grid.p, dtype=float)
    fields, parity = _fields(expansion, q, p, with_grad, maps=maps)
    imag = [] if expansion.anti is None else _fields(expansion.anti, q, p, with_grad, maps=maps)[0]
    for f in fields + imag:
        _require_finite(f, "synthesized Wigner field")
    residue = max((np.max(np.abs(f)) for f in imag), default=0.0)
    if residue > IMAG_RESIDUE_HARD:
        raise ConsistencyError(
            f"{label} has imaginary residue {residue:.3e} > {IMAG_RESIDUE_HARD:.0e}; "
            "the input is effectively non-Hermitian"
        )
    field = WignerField.__new__(WignerField)
    field.grid, field._arrays, field._whole = grid, (*fields, None, None)[:3], [None] * 3
    field._parity, field._expansion = parity, expansion
    return field


def default_grid(state, points=513, sigmas=5.5):
    """Auto-sized grid from the state's operator-trace moments."""
    mean, cov = state_moments(state)
    return PhaseSpaceGrid.for_moments(mean, cov, points=points, sigmas=sigmas)


def wigner_from_fock(rho, grid=None, points=513):
    """Synthesize the Wigner field of a Fock-basis state."""
    rho = as_density(rho)
    if grid is None:
        grid = default_grid(rho, points=points)
    return _synthesize(rho.entries, grid, with_grad=False)


def wigner_gradient(rho, grid=None, points=513):
    """Wigner field with analytic (dW/dq, dW/dp), finite-difference checked.

    The check evaluates W's Hermite-Gauss expansion on a coarse sub-lattice
    shifted by ±h and compares central differences with the analytic
    gradient; disagreement beyond 1e-5 relative, plus the synthesis
    rounding bound over 2h, where |W| > 1e-6 raises.
    """
    rho = as_density(rho)
    if grid is None:
        grid = default_grid(rho, points=points)
    field = _synthesize(rho.entries, grid, with_grad=True)
    _check_gradient(field)
    return field


def _check_gradient(field):
    stride, h = _CHECK_STRIDE, _CHECK_STEP
    grid, (W, grad_q, grad_p) = field.grid, field._arrays
    # every stride-th point the arrays hold: their last ones on each axis
    # (the rest mirrors them bit for bit)
    qs, ps = (x[x.size - n :: stride] for x, n in zip((grid.q, grid.p), W.shape))
    mask = np.abs(W[::stride, ::stride]) > 1e-6
    if not np.any(mask):
        return
    e = field._expansion
    fd, dev = [], []
    # W(q, p) from D is W(p, q) from D^T: the shifted axis goes first, as
    # xs -+ h interleaved, which is mirrored if xs is: -(x_i + h) = x_{m-i} - h
    swapped = e._replace(D=e.D.T, parity=e.parity[::-1])
    for grad, C, xs, ys in ((grad_q, e, qs, ps), (grad_p.T, swapped, ps, qs)):
        shifted = np.column_stack((xs - h, xs + h)).ravel()
        bounds = np.empty((shifted.size, ys.size))
        (samples,), fold = _fields(C, shifted, ys, False, bounds)
        samples = _unfolded(samples, bounds.shape, fold)
        fd.append((samples[1::2] - samples[0::2]) / (2.0 * h))
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


def _independent_cells(field):
    """((W, dW/dq, dW/dp), q, p, wq, wp): the arrays a pass reads (a missing
    gradient None), their coordinates and their Simpson weights.  These are
    the arrays the field holds: along an axis W is even along (grids have
    odd point counts), its cells from the centre h on, weighted w_h,
    2 w_{h+1}, ... (w is symmetric), along any other axis all of it.  A
    field held along an odd axis (mass 0: only a matrix that is not a state
    gives one) is read whole, with unfolded weights."""
    whole = 1 in field._parity
    arrays = (field.values, field.grad_q, field.grad_p) if whole else field._arrays
    grid, axes, weights = field.grid, [], []
    for x, step, parity in zip((grid.q, grid.p), (grid.dq, grid.dp), field._parity):
        h = x.size // 2 if parity == 0 and not whole else 0
        w = axis_weights(x.size, step)[h:]
        if h:
            w[1:] *= 2.0
        axes.append(x[h:])
        weights.append(w)
    return arrays, *axes, *weights


def _quadrature(field, finish=None):
    """(moments, -int W ln|W|, int max(-W, 0)) of a field, in one pass.

    The weights are an outer product wq wp^T (composite Simpson), so the
    mass and the marginals are matvecs and each integral is wq @ f @ wp:
    one sweep of q-row blocks through reused buffers takes the marginals
    and the row integrals of the entropy integrand and the negative part
    (the cross moment reads the field again), then ``finish(rows, block,
    zero, *bufs)``, if given, works on the block in cache with its zero
    mask and four free float buffers (the Fisher sums).  A field even along
    an axis is read on its half x >= 0 there (``_independent_cells``); its
    mean along that axis and its cross moment are 0 exactly.  A mass off 1
    by more than MASS_TOL (or not finite) raises NormalizationError, and
    moments past the float range NumericalError; the callers validate them.
    """
    (W, _, _), q, p, wq, wp = _independent_cells(field)
    marg_q, ent_rows, neg_rows = np.empty((3, W.shape[0]))
    marg_p = np.zeros(W.shape[1])
    for rows, *bufs, zero in _row_blocks(W.shape, 4 if finish else 1):
        block, b = W[rows], bufs[0]
        np.matmul(block, wp, out=marg_q[rows])
        marg_p += wq[rows] @ block
        # ln 1 = 0 puts the integrand at its limit, 0, where W = 0
        np.equal(block, 0.0, out=zero)
        np.abs(block, out=b)
        np.copyto(b, 1.0, where=zero)
        np.log(b, out=b)
        b *= block
        np.matmul(b, wp, out=ent_rows[rows])
        np.matmul(np.minimum(block, 0.0, out=b), wp, out=neg_rows[rows])
        if finish:
            finish(rows, block, zero, *bufs)
    mass = float(wq @ marg_q)
    if not abs(mass - 1.0) <= MASS_TOL:
        raise NormalizationError(f"{'' if np.isfinite(mass) else 'non-finite '}field mass "
                                 f"{mass:.6f} deviates from 1 beyond {MASS_TOL:.0e}")
    even_q, even_p = (parity == 0 for parity in field._parity)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        dq = 0.0 if even_q else float((wq * q) @ marg_q)
        dp = 0.0 if even_p else float(marg_p @ (wp * p))
        cq, cp = q - dq, p - dp
        vqq = float((wq * cq * cq) @ marg_q)
        vpp = float(marg_p @ (wp * cp * cp))
        vqp = 0.0 if even_q or even_p else float((wq * cq) @ W @ (wp * cp))
    if not np.all(np.isfinite([dq, dp, vqq, vqp, vpp])):
        raise NumericalError("the field's moments overflow the float range")
    m = GaussianMoments([dq, dp], [[vqq, vqp], [vqp, vpp]])
    # 0.0 - x, not -x: an all-zero negative part must come out +0.0
    return m, -float(wq @ ent_rows), 0.0 - float(wq @ neg_rows)


def moments(field):
    """Quadrature moments of a normalized field, uncertainty bound checked."""
    return _quadrature(field)[0].validate(physical=True)


def _covariance_logdet(V):
    """ln det V, which must be positive (a NaN determinant is not): ln(det V)
    where det V is a normal float (slogdet's sum of logs differs in the last
    bit for a quarter of 2x2 matrices), else slogdet's, with the sign +1."""
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        det = np.linalg.det(V)
        if np.finfo(float).tiny <= det < np.inf:
            return np.log(det)
        sign, logdet = np.linalg.slogdet(V)
    if not (sign == 1.0 and np.isfinite(logdet)):
        raise np.linalg.LinAlgError("covariance matrix is singular")
    return logdet


def negative_volume(field):
    """|V_-| = (1/2) integral of (|W| - W), the mass of the negative part."""
    return _quadrature(field)[2]

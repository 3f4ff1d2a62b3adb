"""Phase-space grids, log-factorials, the three-term recurrence and
quadrature.

Conventions used throughout the package: hbar = 1, quadrature ordering
(q, p) per mode, vacuum variance 1/2.  Wigner fields are sampled on
tensor-product grids with ``values[i, j] = W(q_i, p_j)``.

Integration is composite Simpson on each axis (grids are kept at odd point
counts for this reason).  No field is convolved on its samples: Gaussian
maps act on the Hermite-Gauss tables the recurrence builds (``wigner``).
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "PhaseSpaceGrid",
    "axis_weights",
    "integrate",
    "worker_count",
]

#: least half-extent of a moment-sized grid
_MIN_EXTENT = 6.0

#: least points per axis of a grid, the working floor for entropy integrals
MIN_POINTS = 65


def worker_count(workers=None):
    """Thread-pool size: the argument, else NGM_WORKERS, else 1."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("NGM_WORKERS", "")
    if env.strip():
        return max(1, int(env))
    return 1


def _ordered_map(fn, items, workers=None):
    """[fn(x) for x in items], on a thread pool of worker_count(workers)."""
    count = worker_count(workers)
    if count == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=count) as pool:
        return list(pool.map(fn, items))


def _axis(lo, hi, n):
    """n points over [lo, hi]; over [-e, e] (odd n) x >= 0 mirrored, bit for bit."""
    if lo != -hi:
        return np.linspace(lo, hi, n)
    half = np.linspace(0.0, hi, n // 2 + 1)
    return np.concatenate((-half[:0:-1], half))


class PhaseSpaceGrid:
    """Uniform rectangular grid over single-mode phase space.

    Point counts are rounded up to odd so composite Simpson applies exactly;
    at least ``min_points`` per axis are required, by default MIN_POINTS.
    Pass a smaller ``min_points`` only for cheap smoke tests.  An axis over
    [-e, e] is mirrored about 0.0.
    """

    def __init__(self, q_min, q_max, p_min, p_max, n_q, n_p, min_points=MIN_POINTS):
        if not (np.all(np.isfinite([q_min, q_max, p_min, p_max]))
                and q_max > q_min and p_max > p_min):
            raise ValueError("grid extents must be finite, q_max > q_min, p_max > p_min")
        n_q, n_p = int(n_q), int(n_p)
        if n_q < min_points or n_p < min_points:
            raise ValueError(f"grid needs at least {min_points} points per axis")
        # round up to odd: Simpson needs an even number of panels
        if n_q % 2 == 0:
            n_q += 1
        if n_p % 2 == 0:
            n_p += 1
        self.q_min, self.q_max = float(q_min), float(q_max)
        self.p_min, self.p_max = float(p_min), float(p_max)
        self.n_q, self.n_p = n_q, n_p
        self.q = _axis(self.q_min, self.q_max, n_q)
        self.p = _axis(self.p_min, self.p_max, n_p)

    @classmethod
    def for_moments(cls, mean, cov, points=513, sigmas=5.5):
        """Grid sized to hold a state with the given first/second moments.

        Half-extent per axis is the largest of _MIN_EXTENT (6), sigmas * rms
        about the origin (rms = sqrt(V_ii + d_i^2), so displaced states
        stay covered) and |d_i| + sigmas * sigma_i.  Coverage of 5.5
        standard deviations keeps the tail bias of a quadrature-extracted
        covariance below ~1e-6 relative; a plain 5-sigma window would bias
        det V of a minimal-uncertainty Gaussian past the uncertainty-bound
        check.
        """
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        sig = np.sqrt(np.diag(cov))
        rms = np.sqrt(np.diag(cov) + mean**2)
        eq = max(_MIN_EXTENT, sigmas * rms[0], abs(mean[0]) + sigmas * sig[0])
        ep = max(_MIN_EXTENT, sigmas * rms[1], abs(mean[1]) + sigmas * sig[1])
        return cls(-eq, eq, -ep, ep, points, points)

    @property
    def dq(self):
        return (self.q_max - self.q_min) / (self.n_q - 1)

    @property
    def dp(self):
        return (self.p_max - self.p_min) / (self.n_p - 1)

    @property
    def shape(self):
        return (self.n_q, self.n_p)

    def meshes(self):
        """Return (Q, P) meshes with values[i, j] <-> (q_i, p_j) layout."""
        return np.meshgrid(self.q, self.p, indexing="ij")

    def __repr__(self):
        return (
            f"PhaseSpaceGrid(q=[{self.q_min:g}, {self.q_max:g}]x{self.n_q}, "
            f"p=[{self.p_min:g}, {self.p_max:g}]x{self.n_p})"
        )


def _log_factorial(n):
    """ln(k!) for k = 0..n.  The sum runs in order, so a longer table
    extends a shorter one bit for bit."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, n + 1.0)))))


def _three_term(z, mant0, exp0, step, back, n):
    """Rows y_0 .. y_{n-1} of y_{k+1} = (z y_k) step_k - y_{k-1} back_k, one
    column per entry of z, with y_0 = mant0 2^exp0 and y_{-1} = 0.

    A column grows by less than G = |z| max|step| + max|back| + 2 per order,
    so every 400 / log2 G orders a column whose last two entries have left
    [2^-500, 2^500] takes a binary exponent of its own (as does a nonzero
    exp0).  Only those columns are scaled back at the end: a column that
    stays in range is the plain recurrence bit for bit.  A column bounded
    below 2^-1100 through order n - 1 is 0.
    """
    table = np.empty((n, z.size), np.result_type(z, mant0, step))
    table[0] = mant0
    smax, g0 = np.abs(step).max(initial=0.0), np.abs(back).max(initial=0.0) + 2.0
    exp = np.array(exp0, dtype=float)
    seeded = np.flatnonzero(exp)
    if seeded.size:
        top = np.log2(np.abs(table[0, seeded])) + exp[seeded]
        top += (n - 1) * np.log2(np.abs(z[seeded]) * smax + g0)
        dead = seeded[top < -1100.0]
        table[0, dead] = exp[dead] = 0.0
    starts, exps = [0], [exp.astype(int)]
    if n > 1:
        np.multiply(z, step[0] * table[0], out=table[1])
        every = int(400.0 // np.log2(np.abs(z).max() * smax + g0))
    tmp = np.empty_like(table[0])
    for k in range(1, n - 1):
        if k % every == 0:
            # a zero column has exponent 0 and stays where it is
            shift = np.frexp(np.abs(table[k - 1 : k + 1]).max(axis=0))[1]
            shift = np.where(np.abs(shift) > 500, np.clip(shift, -1000, 1000), 0)
            if shift.any():
                table[k - 1 : k + 1] *= np.ldexp(1.0, -shift)
                starts.append(k - 1)
                exps.append(exps[-1] + shift)
        np.multiply(z, table[k], out=table[k + 1])
        table[k + 1] *= step[k]
        np.multiply(table[k - 1], back[k], out=tmp)
        table[k + 1] -= tmp
    if seeded.size or len(exps) > 1:
        exps = np.array(exps)
        cols = np.flatnonzero(exps.any(axis=0))
        rows = np.repeat(exps[:, cols], np.diff(starts + [n]), axis=0)
        part = table.take(cols, axis=1)
        flat = part.view(float)
        np.ldexp(flat, np.repeat(rows, part.itemsize // 8, axis=1), out=flat)
        table[:, cols] = part
    return table


def axis_weights(n, step):
    """Quadrature weights for one axis: Simpson for odd n, trapezoid else."""
    w = np.ones(n)
    if n % 2 == 1 and n >= 3:
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w * (step / 3.0)
    w[0] = w[-1] = 0.5
    return w * step


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


def integrate(values, grid):
    """Integrate sampled values over the grid (tensor-product Simpson)."""
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
    wq = axis_weights(grid.n_q, grid.dq)
    wp = axis_weights(grid.n_p, grid.dp)
    return wq @ values @ wp

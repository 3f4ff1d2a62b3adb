"""Phase-space grids, log-factorials, the three-term recurrence, quadrature
and Gaussian smoothing.

Conventions used throughout the package: hbar = 1, quadrature ordering
(q, p) per mode, vacuum variance 1/2.  Wigner fields are sampled on
tensor-product grids with ``values[i, j] = W(q_i, p_j)``.

Integration is composite Simpson on each axis (grids are kept at odd point
counts for this reason); convolution is linear, via FFT with zero padding
to fast lengths (11-smooth, 5-smooth on the real axis), and a field
smoothed by several Gaussians is transformed forward once.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import TruncationRiskError

__all__ = [
    "PhaseSpaceGrid",
    "axis_weights",
    "integrate",
    "convolve_gaussian",
    "worker_count",
]

#: absolute boundary-decay threshold for convolution inputs
BOUNDARY_TOL = 1e-12

#: least half-extent of a moment-sized grid
_MIN_EXTENT = 6.0


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
    by default at least ``min_points`` per axis are required, the working
    floor for entropy integrals.  Pass a smaller ``min_points`` only for
    cheap smoke tests.  An axis over [-e, e] is mirrored about 0.0.
    """

    def __init__(self, q_min, q_max, p_min, p_max, n_q, n_p, min_points=65):
        if not (q_max > q_min and p_max > p_min):
            raise ValueError("grid extents must satisfy q_max > q_min, p_max > p_min")
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

    def __eq__(self, other):
        if not isinstance(other, PhaseSpaceGrid):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.q_min == other.q_min
            and self.q_max == other.q_max
            and self.p_min == other.p_min
            and self.p_max == other.p_max
        )

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


def grid_weights(grid):
    """Tensor-product quadrature weights, shape (n_q, n_p)."""
    return np.outer(axis_weights(grid.n_q, grid.dq), axis_weights(grid.n_p, grid.dp))


def integrate(values, grid):
    """Integrate sampled values over the grid (tensor-product Simpson)."""
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
    wq = axis_weights(grid.n_q, grid.dq)
    wp = axis_weights(grid.n_p, grid.dp)
    return wq @ values @ wp


def _edge_max(values):
    return max(
        np.abs(values[0, :]).max(),
        np.abs(values[-1, :]).max(),
        np.abs(values[:, 0]).max(),
        np.abs(values[:, -1]).max(),
    )


def _check_boundary(values, grid, tol, label):
    mag = _edge_max(values)
    if not mag <= tol:
        raise TruncationRiskError(
            f"{label} does not decay at the grid boundary "
            f"(edge magnitude {mag:.3e} > {tol:.0e}); enlarge the grid",
            magnitude=mag,
        )


def convolve_gaussian(values, grid, cov, boundary_tol=BOUNDARY_TOL):
    """Convolve a field with a centered Gaussian of covariance `cov`.

    The kernel enters through its exact Fourier transform
    exp(-w^T cov w / 2) on the zero-padded spectral grid, so kernels much
    narrower than the mesh stay accurate (the sampled-kernel route fails
    there).  `cov` is a 2x2 symmetric PSD matrix; cov = 0 returns a copy.
    """
    return _convolve_gaussians(values, grid, [cov], boundary_tol)[0]


def _fast_len(target, real=False):
    """Smallest length >= target with no prime factor above 11 (above 5
    for a real axis): a length the FFT transforms fast."""
    best = 1 << (target - 1).bit_length()  # a power of two qualifies
    odd = [1]
    for prime in (3, 5) if real else (3, 5, 7, 11):
        for m in list(odd):
            while m * prime < best:
                m *= prime
                odd.append(m)
    # the least m * 2^k >= target for each odd part m
    return min(m << ((target - 1) // m).bit_length() for m in odd)


def _convolve_gaussians(values, grid, covs, boundary_tol=BOUNDARY_TOL):
    """`convolve_gaussian` of one field for each covariance in `covs`.

    One boundary check and one forward transform serve every kernel (a
    zero one among others is smoothed to rounding, not copied).  Axes pad
    to the next fast length >= 2n - 1 (``_fast_len``); a narrower pad
    would wrap the tails of the Nyquist-cut kernel, which are not Gaussian.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ValueError("field shape does not match grid")
    covs = [np.asarray(cov, dtype=float) for cov in covs]
    if any(cov.shape != (2, 2) for cov in covs):
        raise ValueError("cov must be 2x2")
    if all(np.allclose(cov, 0.0) for cov in covs):
        return [values.copy() for _ in covs]
    _check_boundary(values, grid, boundary_tol, "field")
    nq, np_ = grid.shape
    shape = (_fast_len(2 * nq - 1), _fast_len(2 * np_ - 1, real=True))
    wq = 2.0 * np.pi * np.fft.fftfreq(shape[0], d=grid.dq)
    wp = 2.0 * np.pi * np.fft.rfftfreq(shape[1], d=grid.dp)
    spec = np.fft.rfft2(values, s=shape)
    # kernels multiply into one reused buffer (the spectrum, if only one)
    buf = spec if len(covs) == 1 else np.empty_like(spec)
    out = []
    for cov in covs:
        if cov[0, 1] == 0.0:
            np.multiply(spec, np.exp(-0.5 * cov[0, 0] * wq * wq)[:, None], out=buf)
            buf *= np.exp(-0.5 * cov[1, 1] * wp * wp)
        else:
            # one exponent: split factors of an indefinite cross term overflow
            quad = np.add.outer(cov[0, 0] * wq * wq, cov[1, 1] * wp * wp)
            quad += 2.0 * cov[0, 1] * np.multiply.outer(wq, wp)
            np.multiply(spec, np.exp(-0.5 * quad), out=buf)
        np.fft.ifft(buf, axis=0, out=buf)
        # only the kept rows go through the p transform; the crop is
        # copied so that no padded array outlives the call
        out.append(np.fft.irfft(buf[:nq], n=shape[1], axis=1)[:, :np_].copy())
    return out

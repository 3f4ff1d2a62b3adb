"""Wigner synthesis from Fock-basis states.

The field is the Weyl transform of the density matrix,

    W(q, p) = (1/pi) integral <q-y|rho|q+y> e^{2ipy} dy,

with rho = sum_k lam_k |v_k><v_k| from its eigendecomposition (a pure
state is rank 1) and each wavefunction psi_k(x) = sum_n v_nk phi_n(x)
evaluated from the normalised Hermite-function recurrence, which cannot
overflow.  The y integral is a trapezoid sum, exact to
rounding once the step resolves the state's reach sqrt(2 dim + 1) + 12
in p, and becomes a real GEMM against cosine and sine tables, taken a
block of q rows at a time so that the kernel stays in cache.  The
analytic gradient rides along: dW/dp brings a factor 2iy into the same
transform, and dW/dq uses psi' from the Hermite ladder
phi_n' = sqrt(n/2) phi_{n-1} - sqrt((n+1)/2) phi_{n+1}, one order above
the state's cutoff.

An anti-Hermitian part of the input is synthesized separately as the
imaginary field; its residue is checked and dropped, never silently
discarded above tolerance.
"""

import struct

import numpy as np

from .errors import ConsistencyError, NormalizationError, NumericalError
from .fock import as_density, state_moments
from .numerics import PhaseSpaceGrid, axis_weights, grid_weights, integrate

__all__ = [
    "WignerField",
    "GaussianMoments",
    "default_grid",
    "wigner_from_fock",
    "wigner_gradient",
    "moments",
    "gaussian_wigner",
    "negative_volume",
    "write_field_csv",
    "write_field_binary",
    "read_field_binary",
]

#: imaginary residue above this is a consistency failure (non-Hermitian input)
IMAG_RESIDUE_HARD = 1e-9

#: a field whose quadrature mass misses 1 by more than this is rejected
MASS_TOL = 1e-4

_MAGIC = b"NGMW"


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


#: margin added to the turning radius sqrt(2 dim + 1): past it every
#: Hermite function of the state, and so W itself, is below double
#: precision
SUPPORT_MARGIN = 12.0

#: eigenvalues of rho whose running total stays at or below this share of
#: its trace norm, per dimension, are dropped.  dim * eps is the rounding
#: level of forming rho and of eigh, so a pure state keeps rank 1 at any
#: cutoff (a flat 1e-15 kept 2 to 8 rounding eigenvalues of pure states
#: at n_c = 60 to 160, each costing a wavefunction and a gather).
#: Dropping them moves W pointwise by at most dim * RANK_TOL / pi
RANK_TOL = np.finfo(float).eps

#: largest denominator b of the y step h = (a / b) * dq / 2
_MAX_DENOMINATOR = 8

#: complex cells in one block of K: 256 KiB per buffer
_BLOCK_CELLS = 1 << 14

#: unit roundoff of float64
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


def _require_finite(values, label):
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{label} has non-finite entries")


def _hermite_functions(x, table):
    """Fill the rows of table with phi_0(x), phi_1(x), ..., the normalised
    Hermite functions."""
    n = table.shape[0]
    table[0] = np.pi**-0.25 * np.exp(-0.5 * x * x)
    if n > 1:
        table[1] = np.sqrt(2.0) * x * table[0]
    for k in range(2, n):
        table[k] = np.sqrt(2.0 / k) * x * table[k - 1] - np.sqrt((k - 1) / k) * table[k - 2]


def _truncate(lam, vec, tol):
    """Drop the smallest |lam| while their running total stays <= tol."""
    order = np.argsort(np.abs(lam))
    keep = np.sort(order[np.cumsum(np.abs(lam[order])) > tol])
    return lam[keep], vec[:, keep]


def _y_step(half, h_max):
    """(a, b) with h = half * a / b the largest step <= h_max, b small."""
    best = (1, int(np.ceil(half / h_max)))
    for b in range(1, _MAX_DENOMINATOR + 1):
        a = int(b * h_max / half)
        if a >= 1 and a * best[1] > best[0] * b:
            best = (a, b)
    return best


def _weyl(lam, vec, q, p, with_grad, bound=None):
    """W = (1/pi) int <q-y|rho|q+y> e^{2ipy} dy for rho = sum lam_k |v_k><v_k|.

    Hermitian symmetry, K(q,-y) = conj K(q,y), folds the integral onto
    y >= 0.  The trapezoid sum in y aliases W(q, p + m pi/h) onto W(q, p);
    W vanishes past the reach R, so h <= pi/(max|p| + R) makes it exact to
    rounding, and y stops at R.  h is a rational multiple a/b of the half
    q step, so every q +- y sits on one lattice of step dq/(2b): each
    eigenvector's wavefunction is evaluated there once and K gathered.
    If given, ``bound`` (one entry per q) receives the rounding bound of
    each row of W; values inside it are set to 0.
    """
    n_fields = 3 if with_grad else 1
    dim = vec.shape[0]
    reach = np.sqrt(2.0 * dim + 1.0) + SUPPORT_MARGIN
    rows = np.flatnonzero(np.abs(q) < reach)
    cols = np.flatnonzero(np.abs(p) < reach)
    if lam.size == 0 or rows.size == 0 or cols.size == 0:
        return list(np.zeros((n_fields, q.size, p.size)))
    pc = p[cols]
    h_max = np.pi / (np.max(np.abs(pc)) + reach)
    half = 0.5 * (q[1] - q[0]) if q.size > 1 else h_max
    a, b = _y_step(half, h_max)
    step = half / b
    h = a * step
    n_y = int(np.ceil(reach / h)) + 1
    y = h * np.arange(n_y)

    # lattice index of q_i - y_j and q_i + y_j, shifted so both are >= 0
    centre = 2 * b * np.arange(rows.size) + a * (n_y - 1)
    offset = a * np.arange(n_y)
    # coordinates count from the row nearest q = 0, so q-axes mirrored
    # about 0 (the finite-difference check's +-h shifts of a symmetric
    # grid) get mirrored lattices and equal rounding at their centre
    z = int(np.argmin(np.abs(q[rows])))
    x = q[rows[z]] + step * (np.arange(centre[-1] + offset[-1] + 1) - centre[z])
    # x is monotone, so the points with |x| < reach form one slice
    live = np.flatnonzero(np.abs(x) < reach)
    live = slice(live[0], live[-1] + 1)
    # one order more than rho carries feeds the derivative ladder
    coef = np.vstack((vec, np.zeros((1, lam.size)))) if with_grad else vec
    table = np.zeros((coef.shape[0], x.size))
    _hermite_functions(x[live], table[:, live])
    psi = coef.real.T @ table + 1j * (coef.imag.T @ table)
    if with_grad:
        # phi_n' = sqrt(n/2) phi_{n-1} - sqrt((n+1)/2) phi_{n+1}
        ladder = np.sqrt(np.arange(1, dim + 1) / 2.0)[:, None]
        dcoef = np.zeros_like(coef)
        dcoef[:-1] += ladder * coef[1:]
        dcoef[1:] -= ladder * coef[:-1]
        dpsi = dcoef.real.T @ table + 1j * (dcoef.imag.T @ table)

    # W = sum_j w_j (Re K cos 2py - Im K sin 2py): a real GEMM against T,
    # whose cos and -sin rows interleave to match the float view of K
    w = np.full(n_y, 2.0 * h / np.pi)
    w[0] = h / np.pi
    n_terms = 2 * n_y
    T = np.empty((n_y, 2, pc.size))
    np.multiply.outer(2.0 * y, pc, out=T[:, 1])
    np.cos(T[:, 1], out=T[:, 0])
    np.sin(T[:, 1], out=T[:, 1])
    T[:, 0] *= w[:, None]
    T[:, 1] *= -w[:, None]
    T = T.reshape(n_terms, pc.size)
    # values inside the GEMM's own rounding bound carry no sign: zeroed
    gamma = n_terms * _UNIT_ROUNDOFF / (1.0 - n_terms * _UNIT_ROUNDOFF)
    w_terms = np.repeat(w, 2)

    # K is built and transformed a block of rows at a time, in buffers
    # reused across blocks and eigenvectors: field-sized temporaries would
    # be allocated, faulted in and freed on every call
    fields = np.zeros((n_fields, q.size, p.size))
    cs = slice(cols[0], cols[-1] + 1)
    block = min(rows.size, max(1, _BLOCK_CELLS // n_y))
    # K, dK/dq and the d/dp kernel 2iyK
    kernels = np.empty((n_fields, block, n_y), dtype=complex)
    left, right, term = (np.empty((block, n_y), dtype=complex) for _ in range(3))
    for r0 in range(0, rows.size, block):
        n = min(block, rows.size - r0)
        lo = centre[r0 : r0 + n, None] - offset
        hi = centre[r0 : r0 + n, None] + offset
        kern = kernels[:, :n]
        kern[:] = 0.0
        K, bl, br, bt = kern[0], left[:n], right[:n], term[:n]
        for k in range(lam.size):
            np.take(psi[k], lo, out=bl)
            np.take(psi[k], hi, out=br)
            np.conjugate(br, out=br)
            np.multiply(bl, br, out=bt)
            bt *= lam[k]
            K += bt
            if with_grad:
                # dK/dq = dpsi(q-y) conj psi(q+y) + psi(q-y) conj dpsi(q+y)
                np.take(dpsi[k], lo, out=bt)
                bt *= br
                np.take(dpsi[k], hi, out=br)
                np.conjugate(br, out=br)
                br *= bl
                bt += br
                bt *= lam[k]
                kern[1] += bt
        if with_grad:
            # d/dp brings down 2iy inside the same transform
            np.multiply(K, 2j * y, out=kern[2])
        rs = slice(rows[0] + r0, rows[0] + r0 + n)
        for f, kernel in zip(fields, kern):
            np.matmul(kernel.view(float), T, out=f[rs, cs])
        row_bound = gamma * (np.abs(K.view(float), out=bt.view(float)) @ w_terms)
        W = fields[0, rs, cs]
        W[np.abs(W) <= row_bound[:, None]] = 0.0
        if bound is not None:
            bound[rs] = row_bound
    return list(fields)


def _spectra(c):
    """Rank-cut eigenpairs of c's Hermitian and nonzero anti-Hermitian parts."""
    _require_finite(c, "density matrix")
    parts = [np.linalg.eigh(0.5 * (c + c.conj().T))]
    anti = -0.5j * (c - c.conj().T)
    if np.any(anti):
        parts.append(np.linalg.eigh(anti))
    tol = c.shape[0] * RANK_TOL * sum(np.sum(np.abs(lam)) for lam, _ in parts)
    return [_truncate(*part, tol) for part in parts]


def _synthesize(c, grid, with_grad):
    """Wigner field of the Fock-basis matrix c on the grid's q and p axes.

    Returns [W] or [W, dW/dq, dW/dp].  The Hermitian part of c is
    synthesized from its eigenvectors; an anti-Hermitian part that
    survives the rank cut is synthesized the same way and returned as the
    imaginary part, for the caller's residue check.
    """
    q = np.asarray(grid.q, dtype=float)
    p = np.asarray(grid.p, dtype=float)
    herm, *anti = _spectra(c)
    fields = _weyl(*herm, q, p, with_grad)
    for lam, vec in anti:
        if lam.size:
            imag = _weyl(lam, vec, q, p, with_grad)
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


def wigner_gradient(rho, grid=None, points=513, check=True, check_stride=8, h=1e-5):
    """Wigner field with analytic (dW/dq, dW/dp), finite-difference checked.

    The check re-synthesizes W on a coarse sub-lattice shifted by ±h and
    compares central differences with the analytic gradient; disagreement
    beyond 1e-5 relative, plus the synthesis rounding bound over 2h, where
    |W| > 1e-6 raises.  `check=False` skips it
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
        _check_gradient(rho, field, check_stride, h)
    return field


def _check_gradient(rho, field, stride, h):
    qs = field.grid.q[::stride]
    ps = field.grid.p[::stride]
    mask = np.abs(field.values[::stride, ::stride]) > 1e-6
    if not np.any(mask):
        return
    herm = _spectra(rho.entries)[0]
    fd, dev = [], []
    for grad, dq, dp in ((field.grad_q, h, 0.0), (field.grad_p, 0.0, h)):
        bound = np.zeros((2, qs.size))
        (hi,) = _weyl(*herm, qs + dq, ps + dp, False, bound[0])
        (lo,) = _weyl(*herm, qs - dq, ps - dp, False, bound[1])
        fd.append((hi - lo) / (2.0 * h))
        # both samples are within their rows' rounding bounds, so the
        # central difference is within their sum over 2h
        slack = (bound[0] + bound[1])[:, None] / (2.0 * h)
        dev.append(np.abs(grad[::stride, ::stride] - fd[-1]) - slack)
    scale = np.maximum(np.maximum(np.abs(fd[0]), np.abs(fd[1])), 1e-6)
    worst = np.max((np.maximum(dev[0], dev[1]) / scale)[mask])
    if not worst <= 1e-5:
        raise ConsistencyError(
            f"analytic gradient deviates from finite differences by {worst:.3e} "
            "(relative) beyond their rounding on the checked sub-lattice"
        )


def _require_mass(mass):
    if not abs(mass - 1.0) <= MASS_TOL:
        raise NormalizationError(
            f"field mass {mass:.6f} deviates from 1 beyond {MASS_TOL:.0e}"
        )


def _moments_of(values, grid, physical):
    """Moments from axis-weight matvecs; the caller has checked the mass."""
    wq = axis_weights(grid.n_q, grid.dq)
    wp = axis_weights(grid.n_p, grid.dp)
    marg_q = values @ wp
    marg_p = wq @ values
    dq = float((wq * grid.q) @ marg_q)
    dp = float(marg_p @ (wp * grid.p))
    cq = grid.q - dq
    cp = grid.p - dp
    vqq = float((wq * cq * cq) @ marg_q)
    vpp = float(marg_p @ (wp * cp * cp))
    vqp = float((wq * cq) @ values @ (wp * cp))
    m = GaussianMoments([dq, dp], [[vqq, vqp], [vqp, vpp]])
    return m.validate(physical=physical)


def moments(field, physical=True):
    """Quadrature moments of a normalized field.

    ``physical=False`` skips the uncertainty-bound check, for fields that
    are legitimate densities but not state Wigner functions (for example
    rescaled ones).
    """
    _require_mass(float(np.sum(grid_weights(field.grid) * field.values)))
    return _moments_of(field.values, field.grid, physical)


def gaussian_wigner(m, grid):
    """Gaussian Wigner field with the given moments (the Gaussian associate)."""
    det = np.linalg.det(m.V)
    if det <= 0.0:
        raise np.linalg.LinAlgError("covariance matrix is singular")
    inv = np.linalg.inv(m.V)
    Q, P = grid.meshes()
    x = Q - m.d[0]
    y = P - m.d[1]
    quad = inv[0, 0] * x * x + 2.0 * inv[0, 1] * x * y + inv[1, 1] * y * y
    return WignerField(grid, np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(det)))


def _negative_part(values, w):
    return 0.5 * float(np.sum(w * (np.abs(values) - values)))


def negative_volume(field):
    """|V_-| = (1/2) integral of (|W| - W), the mass of the negative part."""
    w = grid_weights(field.grid)
    _require_mass(float(np.sum(w * field.values)))
    return _negative_part(field.values, w)


# ----------------------------------------------------------------- export


def write_field_csv(field, path):
    """Rows (q, p, W[, dW/dq, dW/dp]) in row-major grid order."""
    g = field.grid
    cols = [field.values]
    header = "q,p,W"
    if field.has_gradient:
        cols += [field.grad_q, field.grad_p]
        header += ",dW_dq,dW_dp"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i, qv in enumerate(g.q):
            for j, pv in enumerate(g.p):
                row = [f"{qv:.12g}", f"{pv:.12g}"] + [f"{c[i, j]:.17g}" for c in cols]
                fh.write(",".join(row) + "\n")


def write_field_binary(field, path):
    """Compact dump: magic, counts, extents, row-major doubles."""
    g = field.grid
    has_grad = 1 if field.has_gradient else 0
    head = struct.pack(
        "<4sII4dB", _MAGIC, g.n_q, g.n_p, g.q_min, g.q_max, g.p_min, g.p_max, has_grad
    )
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(field.values.astype("<f8").tobytes())
        if has_grad:
            fh.write(field.grad_q.astype("<f8").tobytes())
            fh.write(field.grad_p.astype("<f8").tobytes())


def read_field_binary(path):
    head_size = struct.calcsize("<4sII4dB")
    with open(path, "rb") as fh:
        magic, n_q, n_p, q0, q1, p0, p1, has_grad = struct.unpack(
            "<4sII4dB", fh.read(head_size)
        )
        if magic != _MAGIC:
            raise ValueError("not a Wigner field dump (bad magic)")
        grid = PhaseSpaceGrid(q0, q1, p0, p1, n_q, n_p, min_points=2)
        count = n_q * n_p
        data = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(n_q, n_p)
        gq = gp = None
        if has_grad:
            gq = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(n_q, n_p)
            gp = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(n_q, n_p)
    return WignerField(grid, data.copy(), None if gq is None else gq.copy(), gp)

"""Fisher information of Wigner fields and channel monotonicity checks.

The location-Fisher matrix of a Wigner function,

    J_ij = integral (d_i W)(d_j W) / W dq dp,

is finite for the states treated here even when W takes negative values:
across a simple zero the integrand behaves like 1/x, whose symmetric
neighbourhood integrates to a principal value.  The band around the zero
set is excised by the smooth weight

    w = ramp(t),  t = |W| / max(band/pi, width * |grad W|),

ramp the C^2 smoothstep rising 0 -> 1 on [0, 1].  |W|/|grad W| is the
Newton estimate of the distance to the zero set, so w vanishes in a tube
around every sign change, rises symmetrically across it (cancelling the
odd 1/x part) and is one in regular regions, the tails included.  A hard
mask or a sub-cell tube leaves an unresolved 1/x on the mesh, so the
width is 6 mesh steps with the band and 3 with band/2: the threshold
halves exactly, the second weight is ramp(2t) bit for bit, and Richardson
extrapolation of the two removes the residual linear in the width.  One
sweep of q-row blocks reduces both levels' integrands, the excluded and
the total |W| mass to row sums against the p weights.  Fields without
sign changes take the same sweep with W != 0 as their one weight.  A field
even along an axis is swept on the half (or quadrant) the quadrature pass
reads, with its folded weights; there dW/dq dW/dp is odd, so J_qp is 0
exactly and its products are skipped.

On top of J the module provides the drift condition Tr[G(V^-1 - J)]
whose sign controls whether the relative-entropy measure decreases under
an infinitesimal Gaussian convolution of covariance G, the Cramer-Rao
gap V - J^-1, and two finite-difference cross-checks (differential
entropy and measure derivative under epsilon-smoothing) that validate J
against an independent numerical route.  Both checks share one gradient
field, its Fisher matrix and one smoothing pass, whose fields are
drawn from the gradient field's own Hermite-Gauss expansion (turned and
expanded once for a non-diagonal G) at the smoothed table maps: no
sampled field is convolved and no coefficient is rebuilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .measure import _physical_quadrature, gaussian_associate_entropy
from .numerics import _row_blocks
from .wigner import _expand, _independent_cells, _synthesize_mapped, wigner_gradient

__all__ = [
    "BAND_DEFAULT",
    "SMOOTHING_EPSILONS",
    "FisherMatrix",
    "fisher_matrix",
    "fisher_from_field",
    "monotonicity_condition",
    "cramer_rao_check",
    "debruijn_check",
    "measure_derivative_check",
]

#: half-width of the excision band, in units of the Wigner bound 1/pi
BAND_DEFAULT = 1e-4

#: relative gap between the two band widths above which the estimate is
#: flagged as unconverged (carried in the report, never raised)
CONVERGENCE_LIMIT = 0.10

#: a field whose minimum stays above this fraction of its peak is
#: treated as sign-definite; dips this shallow are truncation roundoff
#: (genuine negativity sits orders of magnitude above it) and routing
#: them through the excision band would trade an exact integral for a
#: banded estimate
NEGATIVITY_FLOOR = -1e-8

#: least peak for the sign-definiteness test and least |J| for the band gap
TAIL_FLOOR = 1e-30

#: half-level excision width in mesh cells; the full level uses twice this
RESOLUTION_CELLS = 3.0

#: smoothing strengths of the finite-difference identities, each half the
#: one before (the ratio ``_slope_report`` extrapolates with)
SMOOTHING_EPSILONS = (1e-3, 5e-4, 2.5e-4)


@dataclass(frozen=True)
class FisherMatrix:
    """Extrapolated Fisher matrix with its band-convergence diagnostics.

    ``J`` is the Richardson estimate ``2 J(band/2) - J(band)``, band
    ``BAND_DEFAULT``; the two raw values are kept so callers can judge the
    extrapolation.
    ``excluded_fraction`` is the share of the total |W| mass removed by
    the band at its full width, and ``converged`` records whether the
    two raw values agree to within ``CONVERGENCE_LIMIT``.
    """

    J: np.ndarray
    J_band: np.ndarray
    J_half_band: np.ndarray
    excluded_fraction: float
    rel_gap: float
    converged: bool

    @property
    def trace(self):
        return float(np.trace(self.J))


def fisher_from_field(field):
    """Fisher matrix of an already-synthesized field with gradients."""
    if not field.has_gradient:
        raise ValueError("fisher_from_field needs analytic gradients; "
                         "synthesize with wigner_gradient")
    (W, gq, gp), _, _, wq, wp = _independent_cells(field)
    grid = field.grid
    # no zero crossings: integrated in full wherever W != 0
    definite = W.min() >= NEGATIVITY_FLOOR * max(W.max(), TAIL_FLOOR)
    pairs = ((0, gq, gq), (1, gq, gp), (2, gp, gp))
    if 0 in field._parity:
        # along an axis W is even along, dW/dq dW/dp is odd: J_qp is 0 exactly
        pairs = pairs[::2]
    # rows: qq, qp, pp at the full then the half level; excluded, total |W|
    sums = np.zeros((8, W.shape[0]))
    with np.errstate(invalid="ignore", over="ignore"):  # checked on the sums
        for rows, a, t, full, half, mask in _row_blocks(W.shape, 4):
            block = W[rows]
            np.matmul(np.abs(block, out=a), wp, out=sums[7, rows])
            if definite:
                np.copyto(full, np.not_equal(block, 0.0, out=mask))
                kernels = (full,)
            else:
                # t = |W| / max(band/pi, width |grad W|) at the full level;
                # the half level halves both, so its ramp takes 2t exactly
                np.square(gq[rows], out=t)
                t += np.square(gp[rows], out=half)
                np.sqrt(t, out=t)
                t *= 2.0 * RESOLUTION_CELLS * max(grid.dq, grid.dp)
                np.divide(a, np.maximum(t, BAND_DEFAULT / math.pi, out=t), out=t)
                kernels = (full, half)
                for k in kernels:
                    # the C^2 smoothstep t^3 (10 - 15 t + 6 t^2) of min(t, 1)
                    np.minimum(t, 1.0, out=t)
                    np.multiply(t, 6.0, out=k)
                    k -= 15.0
                    k *= t
                    k += 10.0
                    for _ in range(3):
                        k *= t
                    t *= 2.0
                np.subtract(1.0, full, out=t)
                np.matmul(np.multiply(t, a, out=t), wp, out=sums[6, rows])
            # weight / W, with W = 0 read as 1: every weight vanishes there
            np.copyto(t, block)
            np.copyto(t, 1.0, where=np.equal(block, 0.0, out=mask))
            for k in kernels:
                k /= t
            for n, gi, gj in pairs:
                np.multiply(gi[rows], gj[rows], out=a)
                for level, k in enumerate(kernels):
                    np.matmul(np.multiply(a, k, out=t), wp, out=sums[3 * level + n, rows])
    totals = sums @ wq
    if not np.all(np.isfinite(totals)):
        raise NumericalError("non-finite Fisher integrals: the field or its "
                             "gradient has non-finite entries")
    J_full, J_half = (totals[[k, k + 1, k + 1, k + 2]].reshape(2, 2) for k in (0, 3))
    if definite:
        return FisherMatrix(J_full, J_full.copy(), J_full.copy(), 0.0, 0.0, True)
    J = 2.0 * J_half - J_full
    rel_gap = float(np.linalg.norm(J_full - J_half) / max(np.linalg.norm(J), TAIL_FLOOR))
    return FisherMatrix(J, J_full, J_half, float(totals[6] / totals[7]),
                        rel_gap, rel_gap <= CONVERGENCE_LIMIT)


def fisher_matrix(rho, grid=None, points=513):
    """Fisher matrix of the Wigner function of ``rho``.

    Synthesizes the field with analytic gradients on ``grid`` (or the
    moment-adapted default) and delegates to :func:`fisher_from_field`.
    """
    field = wigner_gradient(rho, grid=grid, points=points)
    return fisher_from_field(field)


def monotonicity_condition(V, J, G):
    """Drift coefficient Tr[G(V^-1 - J)] of the measure under smoothing.

    A nonpositive value signals that the real part of the measure does
    not increase for an infinitesimal Gaussian convolution with
    covariance direction ``G``.
    """
    V, J, G = (np.asarray(x, dtype=float) for x in (V, J, G))
    if not all(np.all(np.isfinite(x)) for x in (V, J, G)):
        raise NumericalError("non-finite entries in the drift condition")
    if np.linalg.eigvalsh(0.5 * (V + V.T))[0] <= 0.0:
        raise ValueError("V must be positive definite")
    return float(np.trace(G @ (np.linalg.inv(V) - J)))


def cramer_rao_check(V, J):
    """Eigenvalues of V - J^-1 and whether the bound V >= J^-1 holds.

    The bound is a theorem only for nonnegative Wigner functions; for
    states with negativity the report is informational.
    """
    V = np.asarray(V, dtype=float)
    J = np.asarray(J, dtype=float)
    if not (np.all(np.isfinite(V)) and np.all(np.isfinite(J))):
        raise NumericalError("non-finite entries in the Cramer-Rao check")
    if abs(np.linalg.det(J)) < 1e-300:
        raise NumericalError("singular Fisher matrix in Cramer-Rao check")
    gap = V - np.linalg.inv(J)
    eigs = np.linalg.eigvalsh(0.5 * (gap + gap.T))
    return {
        "eigenvalues": eigs,
        "min_eigenvalue": float(eigs[0]),
        "passes": bool(eigs[0] >= -1e-6),
    }


def _slope_report(keys, base, values, reference, fisher):
    """The epsilon -> 0 slope of ``values``, taken at ``SMOOTHING_EPSILONS``,
    about ``base`` against ``reference``; ``keys`` name the base, the values
    and the slope.

    Forward-difference slopes carry an error series in integer powers of
    epsilon; with epsilon halving, Richardson level k cancels the power k
    by weighting the smaller epsilon's slope 2^k.
    """
    raw_slopes = [(v - base) / e for v, e in zip(values, SMOOTHING_EPSILONS)]
    level, ratio = raw_slopes, 2.0
    while len(level) > 1:
        level = [(ratio * hi - lo) / (ratio - 1.0) for lo, hi in zip(level, level[1:])]
        ratio *= 2.0
    slope = float(level[0])
    abs_error = abs(slope - reference)
    return {
        "epsilons": list(SMOOTHING_EPSILONS),
        keys[0]: base,
        keys[1]: values,
        "raw_slopes": raw_slopes,
        keys[2]: slope,
        "reference": reference,
        "abs_error": abs_error,
        "rel_error": abs_error / abs(reference) if abs(reference) > 1e-12 else None,
        "fisher": fisher,
    }


def _principal_axes(G):
    """(Lambda, theta): G = R diag(Lambda) R^T, R the rotation by theta (0 for a
    diagonal G).  ValueError unless G is finite, symmetric and PSD (to 1e-12)."""
    G = np.asarray(G, dtype=float)
    if G.shape != (2, 2) or not np.all(np.isfinite(G)):
        raise ValueError("G must be a finite 2x2 matrix")
    tol = 1e-12 * np.abs(G).max()
    if not abs(G[0, 1] - G[1, 0]) <= tol:
        raise ValueError("G must be symmetric")
    lam, U = (np.diag(G), np.eye(2)) if G[0, 1] == 0.0 else np.linalg.eigh(G)
    if not lam.min() >= -tol:
        raise ValueError("G must be positive semi-definite")
    return np.maximum(lam, 0.0), math.atan2(U[1, 0], U[0, 0])


def _smoothing_reports(field, fisher, G, base=None):
    """The de Bruijn and measure-derivative reports of one smoothing pass.

    ``fisher`` is the Fisher matrix of ``field``, a synthesized gradient
    field.  W convolved with N(0, eps G), G = R Lambda R^T, is drawn from the
    field's expansion at the table maps (1, 2 eps Lambda_ii), with the
    finiteness and residue checks of every field; a non-diagonal G expands
    once the matrix turned by c_mn e^{-i(m - n) theta} (field W(R r)), which
    leaves the entropy, Tr(G J) and Tr(G V^-1) as they are.  One quadrature
    pass per field serves both reports; ``base``, the field's own
    ``_physical_quadrature`` if the caller has it, saves that pass when G is
    diagonal (for another G the turned field's own pass is the base).
    """
    lam, theta = _principal_axes(G)
    G = np.asarray(G, dtype=float)
    expansion = field._expansion
    if theta:
        turn = np.exp(-1j * theta * np.arange(expansion.c.shape[0]))
        expansion = _expand(turn[:, None] * expansion.c * turn.conj())

    def quadrature(v):
        maps = ((1.0, v[0]), (1.0, v[1]))
        return _physical_quadrature(
            _synthesize_mapped(expansion, field.grid, False, maps, "smoothed Wigner field"))

    m, entropy, _ = quadrature((0.0, 0.0)) if theta else base or _physical_quadrature(field)
    passes = [quadrature(2.0 * eps * lam) for eps in SMOOTHING_EPSILONS]
    entropies = [h for _, h, _ in passes]
    debruijn = _slope_report(
        ("base_entropy", "entropies", "slope"), entropy, entropies,
        0.5 * float(np.trace(G @ fisher.J)), fisher,
    )
    # the moments are re-measured on each smoothed field, so the
    # Gaussian term moves too
    values = [gaussian_associate_entropy(mf) - h for mf, h, _ in passes]
    R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    report = _slope_report(
        ("base_re_mu", "values", "derivative"),
        gaussian_associate_entropy(m) - entropy, values,
        0.5 * monotonicity_condition(R @ m.V @ R.T, fisher.J, G), fisher,
    )
    derivative, reference = report["derivative"], report["reference"]
    deadband = 1e-3
    report["sign_agrees"] = bool(
        (abs(derivative) < deadband and abs(reference) < deadband)
        or derivative * reference > 0.0
    )
    return debruijn, report


def debruijn_check(rho, G, grid=None, points=513):
    """Differential-entropy growth under smoothing versus (1/2)Tr[G J].

    Convolving W with a centered Gaussian of covariance epsilon*G raises
    the entropy at the initial rate (1/2)Tr[G J]; the left side is
    measured from finite differences with Richardson extrapolation and
    the right side from the principal-value Fisher matrix.
    """
    field = wigner_gradient(rho, grid=grid, points=points)
    return _smoothing_reports(field, fisher_from_field(field), G)[0]


def measure_derivative_check(rho, G, grid=None, points=513):
    """Measure derivative under smoothing versus (1/2)Tr[G(V^-1 - J)].

    The real part of the measure is evaluated on the epsilon-smoothed
    fields (moments re-measured each time, so the Gaussian term moves
    too) and its epsilon -> 0 derivative is compared against the drift
    coefficient from :func:`monotonicity_condition`.
    """
    field = wigner_gradient(rho, grid=grid, points=points)
    return _smoothing_reports(field, fisher_from_field(field), G)[1]


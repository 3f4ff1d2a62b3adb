"""Fisher information of Wigner fields and channel monotonicity checks.

The location-Fisher matrix of a Wigner function,

    J_ij = integral (d_i W)(d_j W) / W dq dp,

is finite for the states treated here even when W takes negative values:
across a simple zero the integrand behaves like 1/x, whose symmetric
neighbourhood integrates to a principal value.  Numerically the
symmetric band around the zero set is excised by the smooth weight

    w(r) = ramp(|W| / max(band/pi, width * |grad W|)),

where ramp is the C^2 smoothstep rising 0 -> 1 on [0, 1].  The ratio
|W|/|grad W| is the Newton estimate of the distance to the zero set, so
the weight vanishes inside a tube of the given width (in grid steps)
around every sign change, rises symmetrically across it (which is what
cancels the odd 1/x part), and saturates to exactly one in regular
regions -- in particular the decaying tails, where |W| is small but
nothing is singular, are left alone.  The band/pi floor keeps the
requested continuum excision in |W| units.  A hard mask instead of the
ramp would leave the mesh sampling an unresolved 1/x and fails badly;
sub-cell tube widths do the same, so the width is tied to the mesh step
(3 and 6 steps) and the leading excision residual, linear in the width,
is removed by Richardson extrapolation of the two levels.  Fields
without sign changes have no zero crossings and are integrated in full.

On top of J the module provides the drift condition Tr[G(V^-1 - J)]
whose sign controls whether the relative-entropy measure decreases under
an infinitesimal Gaussian convolution of covariance G, the Cramer-Rao
gap V - J^-1, and two finite-difference cross-checks (differential
entropy and measure derivative under epsilon-smoothing) that validate J
against an independent numerical route.  Both checks share one gradient
field, its Fisher matrix and one smoothing pass: the field is
transformed forward once and each epsilon costs one inverse transform.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .fock import FockVector, as_density
from .measure import _physical_quadrature, gaussian_associate_entropy
from .numerics import _convolve_gaussians, _ordered_map, integrate
from .wigner import WignerField, moments, wigner_gradient

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
    "fock_fisher_sweep",
    "write_fisher_csv",
]

#: default half-width of the excision band, in units of the Wigner bound 1/pi
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

#: guard against 0/0 in far tails where W and its gradient both underflow
TAIL_FLOOR = 1e-30

#: half-level excision width in mesh cells; the full level uses twice this
RESOLUTION_CELLS = 3.0

#: default smoothing strengths for the finite-difference identities;
#: successive entries must halve (the Richardson ladder assumes it)
SMOOTHING_EPSILONS = (1e-3, 5e-4, 2.5e-4)


@dataclass(frozen=True)
class FisherMatrix:
    """Extrapolated Fisher matrix with its band-convergence diagnostics.

    ``J`` is the Richardson estimate ``2 J(band/2) - J(band)``; the two
    raw values are kept so callers can judge the extrapolation.
    ``excluded_fraction`` is the share of the total |W| mass removed by
    the band at its full width, and ``converged`` records whether the
    two raw values agree to within ``CONVERGENCE_LIMIT``.
    """

    J: np.ndarray
    J_band: np.ndarray
    J_half_band: np.ndarray
    band: float
    excluded_fraction: float
    rel_gap: float
    converged: bool

    def validate(self, positive=False):
        if not np.all(np.isfinite(self.J)):
            raise NumericalError("Fisher matrix has non-finite entries")
        if np.max(np.abs(self.J - self.J.T)) > 1e-10:
            raise NumericalError("Fisher matrix lost symmetry")
        if positive and np.linalg.eigvalsh(self.J)[0] < -1e-8:
            raise NumericalError(
                "Fisher matrix of a nonnegative field is not PSD"
            )
        return self

    @property
    def trace(self):
        return float(np.trace(self.J))


def _entry_pairs(field):
    return ((0, 0, field.grad_q, field.grad_q),
            (0, 1, field.grad_q, field.grad_p),
            (1, 1, field.grad_p, field.grad_p))


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t**3 * (10.0 + t * (-15.0 + 6.0 * t))


def _tube_weight(field, width, band):
    """Smooth excision weight for a tube of `width` around the zero set."""
    slope = np.hypot(field.grad_q, field.grad_p)
    thresh = np.maximum(band / math.pi, width * slope)
    return _smoothstep(np.abs(field.values) / thresh)


def _weighted_integral(field, weight):
    """Integrate (d_i W)(d_j W)/W * weight, entrywise (weight may be a mask)."""
    W = field.values
    safe = np.where(W == 0.0, 1.0, W)
    kernel = weight / safe
    entries = np.empty((2, 2))
    for i, j, gi, gj in _entry_pairs(field):
        entries[i, j] = entries[j, i] = integrate(gi * gj * kernel, field.grid)
    return entries


def fisher_from_field(field, band=BAND_DEFAULT):
    """Fisher matrix of an already-synthesized field with gradients."""
    if not field.has_gradient:
        raise ValueError("fisher_from_field needs analytic gradients; "
                         "synthesize with wigner_gradient")
    if band <= 0.0:
        raise ValueError("band must be positive")
    W = field.values
    if W.min() >= NEGATIVITY_FLOOR * max(W.max(), TAIL_FLOOR):
        # sign-definite field: no zero crossings, integrate in full
        # (the tail guard only protects against 0/0 underflow)
        J = _weighted_integral(field, np.abs(W) >= TAIL_FLOOR)
        return FisherMatrix(J, J.copy(), J.copy(), band, 0.0, 0.0, True)
    step = max(field.grid.dq, field.grid.dp)
    weight_full = _tube_weight(field, 2.0 * RESOLUTION_CELLS * step, band)
    weight_half = _tube_weight(field, RESOLUTION_CELLS * step, 0.5 * band)
    J_full = _weighted_integral(field, weight_full)
    J_half = _weighted_integral(field, weight_half)
    J = 2.0 * J_half - J_full
    gap = np.linalg.norm(J_full - J_half)
    rel_gap = gap / max(np.linalg.norm(J), TAIL_FLOOR)
    excluded = integrate((1.0 - weight_full) * np.abs(W), field.grid)
    abs_mass = integrate(np.abs(W), field.grid)
    return FisherMatrix(
        J,
        J_full,
        J_half,
        band,
        float(excluded / abs_mass),
        float(rel_gap),
        bool(rel_gap <= CONVERGENCE_LIMIT),
    )


def fisher_matrix(rho, grid=None, band=BAND_DEFAULT, points=513):
    """Fisher matrix of the Wigner function of ``rho``.

    Synthesizes the field with analytic gradients on ``grid`` (or the
    moment-adapted default) and delegates to :func:`fisher_from_field`.
    """
    field = wigner_gradient(rho, grid=grid, points=points)
    return fisher_from_field(field, band=band)


def monotonicity_condition(V, J, G):
    """Drift coefficient Tr[G(V^-1 - J)] of the measure under smoothing.

    A nonpositive value signals that the real part of the measure does
    not increase for an infinitesimal Gaussian convolution with
    covariance direction ``G``.
    """
    V = np.asarray(V, dtype=float)
    if np.linalg.eigvalsh(0.5 * (V + V.T))[0] <= 0.0:
        raise ValueError("V must be positive definite")
    J = np.asarray(J, dtype=float)
    G = np.asarray(G, dtype=float)
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


def _validate_epsilons(epsilons):
    eps = [float(e) for e in epsilons]
    if len(eps) < 2 or any(e <= 0 for e in eps):
        raise ValueError("need at least two positive epsilons")
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ValueError("epsilons must decrease")
    return eps


def _slope_report(epsilons, keys, base, values, reference, fisher):
    """The epsilon -> 0 slope of ``values`` about ``base`` against
    ``reference``; ``keys`` name the base, the values and the slope.

    Forward-difference slopes carry an error series in integer powers of
    epsilon; each Richardson level cancels the leading power using the
    measured ratio of successive epsilons (the default halves it).
    """
    raw_slopes = [(v - base) / e for v, e in zip(values, epsilons)]
    level, scale, power = raw_slopes, epsilons, 1
    while len(level) > 1:
        ratios = [(a / b) ** power for a, b in zip(scale, scale[1:])]
        level = [(r * hi - lo) / (r - 1.0)
                 for r, lo, hi in zip(ratios, level, level[1:])]
        scale = scale[1:]
        power += 1
    slope = float(level[0])
    abs_error = abs(slope - reference)
    return {
        "epsilons": list(epsilons),
        keys[0]: base,
        keys[1]: values,
        "raw_slopes": raw_slopes,
        keys[2]: slope,
        "reference": reference,
        "abs_error": abs_error,
        "rel_error": abs_error / abs(reference) if abs(reference) > 1e-12 else None,
        "fisher": fisher,
    }


def _smoothing_reports(field, fisher, G, epsilons=None, base=None):
    """The de Bruijn and measure-derivative reports of one smoothing pass.

    ``fisher`` is the Fisher matrix of the gradient field ``field``, which
    is smoothed once per epsilon; one quadrature pass per field (moments
    and entropy) serves both reports.  ``base``, the field's own
    ``_physical_quadrature`` if the caller has it, saves that pass.
    """
    epsilons = _validate_epsilons(SMOOTHING_EPSILONS if epsilons is None else epsilons)
    G = np.asarray(G, dtype=float)
    # the smoothing kernels are epsilon-narrow, so wraparound leakage is
    # bounded by the field's own edge magnitude; moment-adapted grids
    # leave edges around 1e-8 for strongly anti-squeezed states, which
    # is harmless here
    smoothed = [
        WignerField(field.grid, values)
        for values in _convolve_gaussians(
            field.values, field.grid, [eps * G for eps in epsilons],
            boundary_tol=1e-6,
        )
    ]
    m, entropy, _ = base or _physical_quadrature(field)
    passes = [_physical_quadrature(f) for f in smoothed]
    entropies = [h for _, h, _ in passes]
    debruijn = _slope_report(
        epsilons, ("base_entropy", "entropies", "slope"), entropy, entropies,
        0.5 * float(np.trace(G @ fisher.J)), fisher,
    )
    # the moments are re-measured on each smoothed field, so the
    # Gaussian term moves too
    values = [gaussian_associate_entropy(mf) - h for mf, h, _ in passes]
    report = _slope_report(
        epsilons, ("base_re_mu", "values", "derivative"),
        gaussian_associate_entropy(m) - entropy, values,
        0.5 * monotonicity_condition(m.V, fisher.J, G), fisher,
    )
    derivative, reference = report["derivative"], report["reference"]
    deadband = 1e-3
    report["sign_agrees"] = bool(
        (abs(derivative) < deadband and abs(reference) < deadband)
        or derivative * reference > 0.0
    )
    return debruijn, report


def debruijn_check(rho, G, epsilons=None, grid=None, points=513,
                   band=BAND_DEFAULT):
    """Differential-entropy growth under smoothing versus (1/2)Tr[G J].

    Convolving W with a centered Gaussian of covariance epsilon*G raises
    the entropy at the initial rate (1/2)Tr[G J]; the left side is
    measured from finite differences with Richardson extrapolation and
    the right side from the principal-value Fisher matrix.
    """
    field = wigner_gradient(rho, grid=grid, points=points)
    fisher = fisher_from_field(field, band=band)
    return _smoothing_reports(field, fisher, G, epsilons)[0]


def measure_derivative_check(rho, G, epsilons=None, grid=None, points=513,
                             band=BAND_DEFAULT):
    """Measure derivative under smoothing versus (1/2)Tr[G(V^-1 - J)].

    The real part of the measure is evaluated on the epsilon-smoothed
    fields (moments re-measured each time, so the Gaussian term moves
    too) and its epsilon -> 0 derivative is compared against the drift
    coefficient from :func:`monotonicity_condition`.
    """
    field = wigner_gradient(rho, grid=grid, points=points)
    fisher = fisher_from_field(field, band=band)
    return _smoothing_reports(field, fisher, G, epsilons)[1]


def fock_fisher_sweep(n_max=10, points=513, band=BAND_DEFAULT, workers=None):
    """Tr J versus Tr V^-1 for the number states n = 0..n_max.

    Returns one dict per state with keys ``n``, ``trace_J``,
    ``trace_Vinv``, ``excluded_fraction``, ``band``.  The sweep runs on
    a thread pool sized by ``workers`` (or the NGM_WORKERS environment
    variable) and the output order is deterministic in ``n``.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")

    def one(n):
        amps = np.zeros(n + 1)
        amps[n] = 1.0
        rho = as_density(FockVector(amps))
        field = wigner_gradient(rho, points=points)
        fisher = fisher_from_field(field, band=band)
        V = moments(field).V
        return {
            "n": n,
            "trace_J": fisher.trace,
            "trace_Vinv": float(np.trace(np.linalg.inv(V))),
            "excluded_fraction": fisher.excluded_fraction,
            "band": band,
        }

    return _ordered_map(one, range(n_max + 1), workers)


def write_fisher_csv(rows, path):
    """Write a Fock Fisher sweep as CSV with a fixed column order."""
    fields = ["n", "trace_J", "trace_Vinv", "excluded_fraction", "band"]
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in fields})

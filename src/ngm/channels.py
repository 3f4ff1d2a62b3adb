"""Thermal-loss evolution through two independent engines.

A thermal-loss channel (transmissivity tau, environment occupancy n_bar)
decomposes exactly into a pure-loss channel of transmissivity eta = tau/G
followed by a quantum-limited amplifier of gain G = 1 + (1-tau) n_bar.
The Fock engine applies the truncated Kraus sums of both pieces.  Each
Kraus operator of either piece has one nonzero diagonal (a scaled a^l or
(a^dag)^k), so A rho A^dag is a shifted copy of rho scaled by the outer
product of that diagonal with itself: O(dim^2) per order.  The
phase-space engine rescales the Wigner field by sqrt(tau) and convolves
with the (analytic) rescaled thermal Gaussian.  The two engines share no
code past the input state, which makes their agreement a meaningful
cross-check rather than a tautology.
"""

import warnings

import numpy as np

from .errors import GridError, TruncationRiskError
from .fock import FockDensityMatrix, as_density, trim_density
from .numerics import (
    BOUNDARY_TOL,
    _edge_max,
    _log_factorial,
    convolve_gaussian,
)
from .wigner import MASS_TOL, WignerField

__all__ = [
    "ThermalLossSpec",
    "pure_loss_kraus",
    "amplifier_kraus",
    "thermal_loss_fock",
    "rescale",
    "thermal_loss_phase_space",
]

#: default ceiling on the per-piece Kraus order
KRAUS_ORDER_CAP = 30

#: acceptable trace deficit after truncated channel application
TRACE_DEFICIT_TOL = 1e-6


class ThermalLossSpec:
    """Thermal-loss parameters with the derived loss/amplifier split."""

    def __init__(self, tau, n_bar):
        tau = float(tau)
        n_bar = float(n_bar)
        if not 0.0 < tau <= 1.0:
            raise ValueError(f"transmissivity tau = {tau} must lie in (0, 1]")
        if not 0.0 <= n_bar < np.inf:
            raise ValueError(f"occupancy n_bar = {n_bar} must be finite and non-negative")
        self.tau = tau
        self.n_bar = n_bar
        self.gain = 1.0 + (1.0 - tau) * n_bar
        self.eta = tau / self.gain

    def __repr__(self):
        return f"ThermalLossSpec(tau={self.tau}, n_bar={self.n_bar})"


def pure_loss_kraus(eta, l_max, dim):
    """Kraus operators of the pure-loss channel of transmissivity eta.

    The l-th operator is sqrt((1-eta)^l / l!) eta^{n/2} a^l; on the subspace
    with at most l_max photons the family is exactly complete.  It has one
    nonzero diagonal, l above the main one, so the l-th entry of the
    returned list is that diagonal: the operator is ``np.diag(v[l], l)``.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"transmissivity eta = {eta} must lie in (0, 1]")
    if not 0 <= l_max <= dim:
        raise ValueError("Kraus order must lie within the space dimension")
    v = np.zeros((l_max + 1, dim))
    if eta == 1.0:
        v[0] = 1.0
    else:
        # cell (l, i) holds the amplitude of |n - l><n| at n = i + l
        l, i = np.nonzero(np.add.outer(np.arange(l_max + 1), np.arange(dim)) < dim)
        ns = i + l
        lf = _log_factorial(dim)
        v[l, i] = np.exp(0.5 * (
            l * np.log(1.0 - eta) - lf[l] + (ns - l) * np.log(eta) + lf[ns] - lf[ns - l]
        ))
    return [v[l, : dim - l] for l in range(l_max + 1)]


def amplifier_kraus(gain, k_max, dim):
    """Kraus operators of the quantum-limited amplifier with the given gain.

    The k-th operator is sqrt(((gain-1)/gain)^k / (k! gain)) (a^dag)^k
    gain^{-n/2}.  It has one nonzero diagonal, k below the main one, so
    the k-th entry of the returned list is that diagonal: the operator is
    ``np.diag(v[k], -k)``.
    """
    if gain < 1.0:
        raise ValueError(f"amplifier gain = {gain} must be >= 1")
    if not 0 <= k_max <= dim:
        raise ValueError("Kraus order must lie within the space dimension")
    v = np.zeros((k_max + 1, dim))
    if gain == 1.0:
        v[0] = 1.0
    else:
        # cell (k, n) holds the amplitude of |n + k><n|
        k, ns = np.nonzero(np.add.outer(np.arange(k_max + 1), np.arange(dim)) < dim)
        lf = _log_factorial(dim)
        v[k, ns] = np.exp(0.5 * (
            k * np.log((gain - 1.0) / gain) - lf[k] - np.log(gain)
            + lf[ns + k] - lf[ns] - ns * np.log(gain)
        ))
    return [v[k, : dim - k] for k in range(k_max + 1)]


def thermal_loss_fock(rho, spec):
    """Loss-then-amplifier Kraus evolution in the truncated Fock basis.

    The Kraus orders are min(dim - 1, 30) for the loss and 30 for the
    amplifier; a trace deficit beyond 1e-6 triggers one doubling of both
    orders before the deficit is reported as an error.  The output is
    renormalized and trimmed of negligible trailing Fock levels.
    """
    rho = as_density(rho)
    dim = rho.dim
    if spec.tau == 1.0:
        return rho
    # loss can remove at most dim - 1 quanta from the truncated state
    l_max = min(dim - 1, KRAUS_ORDER_CAP)
    # the amplifier adds quanta into fresh headroom, so its order is not
    # bounded by the input dimension
    k_max = KRAUS_ORDER_CAP
    c = rho.entries
    for escalated in (False, True):
        # (v_i rho_ij) v_j is the expression the dense op @ rho @ op.T
        # evaluates per element, so the sums match it bit for bit
        lost = np.zeros((dim, dim), dtype=complex)
        for l, v in enumerate(pure_loss_kraus(spec.eta, min(l_max, dim), dim)):
            lost[: dim - l, : dim - l] += v[:, None] * c[l:, l:] * v
        out_dim = dim + k_max
        out = np.zeros((out_dim, out_dim), dtype=complex)
        for k, v in enumerate(amplifier_kraus(spec.gain, k_max, out_dim)):
            out[k : k + dim, k : k + dim] += v[:dim, None] * lost * v[:dim]
        trace = float(np.trace(out).real)
        if trace >= 1.0 - TRACE_DEFICIT_TOL:
            break
        if escalated:
            raise TruncationRiskError(
                f"channel output keeps trace {trace:.8f} < 1 - {TRACE_DEFICIT_TOL:.0e} "
                f"at l_max={l_max}, k_max={k_max}",
                magnitude=1.0 - trace,
            )
        l_max *= 2
        k_max *= 2
        warnings.warn(
            f"Kraus orders escalated to l_max={l_max}, k_max={k_max} "
            f"to close a trace deficit of {1.0 - trace:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    out /= trace
    return trim_density(FockDensityMatrix(out), tol=1e-12)


def rescale(field, s):
    """Phase-space dilation (1/s^2) W(r/s) on the field's own grid.

    Resampling is bilinear, one axis at a time; a shrinking factor (s < 1)
    samples beyond the original extent, which is only sound when the field
    has decayed at the boundary (checked).
    """
    if not s > 0.0:
        raise ValueError("rescaling factor must be positive")
    g = field.grid
    if s < 1.0:
        edge = _edge_max(field.values)
        if not edge <= BOUNDARY_TOL:
            raise GridError(
                f"rescaled support leaves the grid: boundary magnitude {edge:.3e} "
                f"exceeds {BOUNDARY_TOL:.0e}"
            )
    return WignerField(g, _bilinear(field.values, g, g.q / s, g.p / s) / (s * s))


def _linear_weights(axis, x):
    """For each x: the cell index i on ``axis`` and the weights of nodes
    i and i + 1, both 0 for x off the axis."""
    i = np.clip(np.searchsorted(axis, x, side="right") - 1, 0, axis.size - 2)
    t = (x - axis[i]) / (axis[i + 1] - axis[i])
    inside = (x >= axis[0]) & (x <= axis[-1])
    return i, np.where(inside, 1.0 - t, 0.0), np.where(inside, t, 0.0)


def _bilinear(values, grid, q, p):
    """Bilinear samples of ``values`` on ``grid`` at the points (q_i, p_j),
    0 outside the grid: one linear pass along q, then one along p."""
    i, lo, hi = _linear_weights(grid.q, q)
    rows = lo[:, None] * values[i] + hi[:, None] * values[i + 1]
    j, lo, hi = _linear_weights(grid.p, p)
    return lo * rows[:, j] + hi * rows[:, j + 1]


def thermal_loss_phase_space(field, spec):
    """Rescale-and-convolve realization of the thermal-loss channel.

    W_out = L_sqrt(tau)[W_in] * L_sqrt(1-tau)[W_thermal]; the rescaled
    thermal Wigner function is the Gaussian with covariance
    (1-tau)(n_bar + 1/2) I, applied analytically in the spectral domain.
    The output is renormalized on its grid.  A convolved mass off 1 by
    more than MASS_TOL (or NaN) raises TruncationRiskError: below 1 the
    kernel spread the field past the grid, above 1 the grid is too coarse
    to integrate the rescaled field.
    """
    scaled = rescale(field, np.sqrt(spec.tau))
    kernel_cov = (1.0 - spec.tau) * (spec.n_bar + 0.5) * np.eye(2)
    values = convolve_gaussian(scaled.values, scaled.grid, kernel_cov)
    mass = WignerField(scaled.grid, values).integral()
    if not abs(mass - 1.0) <= MASS_TOL:
        if mass > 1.0:
            cause = "the grid is too coarse for the rescaled field (--grid-points)"
        else:
            cause = (f"{1.0 - mass:.3e} is lost off the grid; a wider grid "
                     "(--extent-sigmas) is needed")
        raise TruncationRiskError(
            f"phase-space channel output keeps mass {mass:.6f}, beyond "
            f"{MASS_TOL:.0e} of 1: {cause}",
            magnitude=abs(mass - 1.0),
        )
    return WignerField(scaled.grid, values / mass)

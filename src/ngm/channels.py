"""Thermal-loss evolution through two independent engines.

A thermal-loss channel (transmissivity tau, environment occupancy n_bar)
decomposes exactly into a pure-loss channel of transmissivity eta = tau/G
followed by a quantum-limited amplifier of gain G = 1 + (1-tau) n_bar.
The Fock engine applies the truncated Kraus sums of both pieces; the
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
    integrate,
)
from .wigner import WignerField

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
    """Kraus matrices of the pure-loss channel of transmissivity eta.

    The l-th matrix is sqrt((1-eta)^l / l!) eta^{n/2} a^l; on the subspace
    with at most l_max photons the family is exactly complete.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"transmissivity eta = {eta} must lie in (0, 1]")
    if not 0 <= l_max <= dim:
        raise ValueError("Kraus order must lie within the space dimension")
    lf = _log_factorial(dim)
    ops = []
    for l in range(l_max + 1):
        A = np.zeros((dim, dim))
        ns = np.arange(l, dim)
        if eta == 1.0:
            if l == 0:
                A[ns, ns] = 1.0
            ops.append(A)
            continue
        log_amp = 0.5 * (
            l * np.log(1.0 - eta)
            - lf[l]
            + (ns - l) * np.log(eta)
            + lf[ns]
            - lf[ns - l]
        )
        A[ns - l, ns] = np.exp(log_amp)
        ops.append(A)
    return ops


def amplifier_kraus(gain, k_max, dim):
    """Kraus matrices of the quantum-limited amplifier with the given gain.

    The k-th matrix is sqrt(((gain-1)/gain)^k / (k! gain)) (a^dag)^k
    gain^{-n/2}.
    """
    if gain < 1.0:
        raise ValueError(f"amplifier gain = {gain} must be >= 1")
    if not 0 <= k_max <= dim:
        raise ValueError("Kraus order must lie within the space dimension")
    lf = _log_factorial(dim)
    ops = []
    for k in range(k_max + 1):
        B = np.zeros((dim, dim))
        ns = np.arange(0, dim - k)
        if gain == 1.0:
            if k == 0:
                B[ns, ns] = 1.0
            ops.append(B)
            continue
        log_amp = 0.5 * (
            k * np.log((gain - 1.0) / gain)
            - lf[k]
            - np.log(gain)
            + lf[ns + k]
            - lf[ns]
            - ns * np.log(gain)
        )
        B[ns + k, ns] = np.exp(log_amp)
        ops.append(B)
    return ops


def _kraus_apply(rho, ops):
    out = np.zeros_like(ops[0], dtype=complex)
    for op in ops:
        out += op @ rho @ op.conj().T
    return out


def thermal_loss_fock(rho, spec, l_max=None, k_max=None):
    """Loss-then-amplifier Kraus evolution in the truncated Fock basis.

    Default orders are min(dim - 1, 30); with defaults in effect a trace
    deficit beyond 1e-6 triggers one doubling of both orders before the
    deficit is reported as an error.  The output is renormalized and
    trimmed of negligible trailing Fock levels.
    """
    rho = as_density(rho)
    dim = rho.dim
    if spec.tau == 1.0:
        return rho
    auto = l_max is None and k_max is None
    if l_max is None:
        # loss can remove at most dim - 1 quanta from the truncated state
        l_max = min(dim - 1, KRAUS_ORDER_CAP)
    if k_max is None:
        # the amplifier adds quanta into fresh headroom, so its order is
        # not bounded by the input dimension
        k_max = KRAUS_ORDER_CAP
    while True:
        lost = _kraus_apply(rho.entries, pure_loss_kraus(spec.eta, min(l_max, dim), dim))
        out_dim = dim + k_max
        mid = np.zeros((out_dim, out_dim), dtype=complex)
        mid[:dim, :dim] = lost
        out = _kraus_apply(mid, amplifier_kraus(spec.gain, k_max, out_dim))
        trace = float(np.trace(out).real)
        if trace >= 1.0 - TRACE_DEFICIT_TOL:
            break
        if auto:
            auto = False
            l_max *= 2
            k_max *= 2
            warnings.warn(
                f"Kraus orders escalated to l_max={l_max}, k_max={k_max} "
                f"to close a trace deficit of {1.0 - trace:.3e}",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        raise TruncationRiskError(
            f"channel output keeps trace {trace:.8f} < 1 - {TRACE_DEFICIT_TOL:.0e} "
            f"at l_max={l_max}, k_max={k_max}",
            magnitude=1.0 - trace,
        )
    out /= trace
    return trim_density(FockDensityMatrix(out), tol=1e-12)


def _scale_pair(s):
    if np.isscalar(s):
        return float(s), float(s)
    s = np.asarray(s, dtype=float)
    if s.shape != (2, 2) or s[0, 1] != 0.0 or s[1, 0] != 0.0:
        raise ValueError("matrix rescaling supports diagonal 2x2 factors only")
    return float(s[0, 0]), float(s[1, 1])


def rescale(field, s):
    """Phase-space dilation (1/s^2) W(r/s) on the field's own grid.

    Accepts a scalar s or a diagonal 2x2 matrix with per-axis factors.
    Resampling is bilinear, one axis at a time; shrinking factors (s < 1)
    sample beyond the original extent, which is only sound when the field
    has decayed at the boundary (checked).
    """
    sq, sp = _scale_pair(s)
    if sq <= 0.0 or sp <= 0.0:
        raise ValueError("rescaling factors must be positive")
    g = field.grid
    if sq < 1.0 or sp < 1.0:
        edge = _edge_max(field.values)
        if not edge <= BOUNDARY_TOL:
            raise GridError(
                f"rescaled support leaves the grid: boundary magnitude {edge:.3e} "
                f"exceeds {BOUNDARY_TOL:.0e}"
            )
    return WignerField(g, _bilinear(field.values, g, g.q / sq, g.p / sp) / (sq * sp))


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


def thermal_loss_phase_space(field, spec, grid=None):
    """Rescale-and-convolve realization of the thermal-loss channel.

    W_out = L_sqrt(tau)[W_in] * L_sqrt(1-tau)[W_thermal]; the rescaled
    thermal Wigner function is the Gaussian with covariance
    (1-tau)(n_bar + 1/2) I, applied analytically in the spectral domain.
    The output is renormalized on its grid.
    """
    scaled = rescale(field, np.sqrt(spec.tau))
    kernel_cov = (1.0 - spec.tau) * (spec.n_bar + 0.5) * np.eye(2)
    values = convolve_gaussian(scaled.values, scaled.grid, kernel_cov)
    out = WignerField(scaled.grid, values)
    mass = out.integral()
    out = WignerField(scaled.grid, values / mass)
    if grid is not None and grid != scaled.grid:
        resampled = _bilinear(out.values, scaled.grid, grid.q, grid.p)
        resampled /= integrate(resampled, grid)
        out = WignerField(grid, resampled)
    return out

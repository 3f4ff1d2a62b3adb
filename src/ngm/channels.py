"""Thermal-loss evolution through two independent engines.

A thermal-loss channel (transmissivity tau, environment occupancy n_bar)
decomposes exactly into a pure-loss channel of transmissivity eta = tau/G
followed by a quantum-limited amplifier of gain G = 1 + (1-tau) n_bar.
The Fock engine applies the truncated Kraus sums of both pieces.  Each
Kraus operator of either piece has one nonzero diagonal (a scaled a^l or
(a^dag)^k), so A rho A^dag is a shifted copy of rho scaled by the outer
product of that diagonal with itself: O(dim^2) per order.  The orders
come from the closed-form share of the trace each keeps (binomial for the
loss, negative-binomial for the amplifier).  The phase-space engine
rescales the Wigner field by sqrt(tau) and convolves it with the rescaled
thermal Gaussian, exactly, on each Hermite-Gauss mode.  The two engines
share no code past the input's coefficients D, which makes their
agreement a meaningful cross-check rather than a tautology.  The spec
owns the channel's action on moments, (d, V) -> (sqrt(tau) d, tau V +
(1 - tau)(n_bar + 1/2) I), which sizes the phase-space engine's grid.
"""

import math

import numpy as np

from .errors import CapacityError, TruncationRiskError
from .fock import FockDensityMatrix, as_density, trim_density
from .numerics import _log_factorial, integrate
from .wigner import MASS_TOL, WignerField, _real_part, _require_finite, _synthesize_mapped

__all__ = [
    "ThermalLossSpec",
    "pure_loss_kraus",
    "amplifier_kraus",
    "thermal_loss_fock",
    "thermal_loss_phase_space",
]

#: least per-piece Kraus order; the closed-form tails raise it where needed
KRAUS_ORDER_FLOOR = 30

#: largest amplifier order, whose output space has dim + order levels
_KRAUS_ORDER_CEILING = 1024

#: acceptable trace deficit after truncated channel application
TRACE_DEFICIT_TOL = 1e-6


class ThermalLossSpec:
    """Thermal-loss parameters with the derived loss/amplifier split and
    the noise (1 - tau)(n_bar + 1/2) the channel adds to each quadrature's
    variance."""

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
        self.noise = (1.0 - tau) * (n_bar + 0.5)

    def output_moments(self, mean, cov):
        """The output's moments (sqrt(tau) d, tau V + noise I) for input (d, V)."""
        return np.sqrt(self.tau) * mean, self.tau * cov + self.noise * np.eye(2)

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


def _least_order(weights, log_shares, floor):
    """max(floor, least k whose shares keep all but TRACE_DEFICIT_TOL / 2), else None."""
    kept = np.cumsum(weights @ np.exp(log_shares))
    hit = np.flatnonzero(kept >= weights.sum() - 0.5 * TRACE_DEFICIT_TOL)
    return max(floor, int(hit[0])) if hit.size else None


def _loss_order(p, eta):
    """Loss order for populations p: order l keeps C(n, l) eta^(n-l) (1-eta)^l of level n."""
    dim = p.size
    floor = min(dim - 1, KRAUS_ORDER_FLOOR)
    if floor == dim - 1:
        return floor  # loss removes at most dim - 1 quanta
    n = np.arange(dim)
    lf = _log_factorial(dim)
    lost = n[:, None] - n
    logs = lf[n][:, None] - lf[n] - lf[np.abs(lost)] + lost * np.log(eta) + n * np.log1p(-eta)
    return _least_order(p, np.where(lost >= 0, logs, -np.inf), floor)


def _amplifier_order(q, gain):
    """Amplifier order for populations q: order k keeps C(m + k, k) gain^-(m+1)
    (1 - 1/gain)^k of level m.  Past _KRAUS_ORDER_CEILING, CapacityError."""
    # the top level's share past the floor bounds every level's (q sums to at
    # most 1), and by Chernoff it is at most ((1 - x)/(1 - y))^r (x/y)^j
    x, r, j = 1.0 - 1.0 / gain, q.size, KRAUS_ORDER_FLOOR + 1
    y, cut = j / (j + r), math.log(0.5 * TRACE_DEFICIT_TOL)
    if x == 0.0 or x < y and r * math.log((1 - x) / (1 - y)) + j * math.log(x / y) < cut:
        return KRAUS_ORDER_FLOOR
    m = np.arange(q.size)[:, None]
    for top in (KRAUS_ORDER_FLOOR, _KRAUS_ORDER_CEILING):
        k = np.arange(top + 1)
        lf = _log_factorial(q.size + top)
        logs = lf[m + k] - lf[k] - (lf[m] + (m + 1) * math.log(gain))
        logs += k * math.log1p(-1.0 / gain)
        order = _least_order(q, logs, KRAUS_ORDER_FLOOR)
        if order is not None:
            return order
    raise CapacityError(
        f"the amplifier needs more than {_KRAUS_ORDER_CEILING} Kraus orders "
        f"to keep the trace within {TRACE_DEFICIT_TOL:.0e}"
    )


def thermal_loss_fock(rho, spec):
    """Loss-then-amplifier Kraus evolution in the truncated Fock basis.

    Each piece takes the least order whose closed-form shares keep all but
    TRACE_DEFICIT_TOL / 2 of its input's trace, at least min(dim - 1, 30) for
    the loss and 30 for the amplifier; a deficit beyond TRACE_DEFICIT_TOL
    after the sums raises.  The output is renormalized and trimmed.
    """
    rho = as_density(rho)
    dim = rho.dim
    if spec.tau == 1.0:
        return rho
    c = rho.entries
    _require_finite(c, "density matrix")
    l_max = _loss_order(np.diagonal(c).real, spec.eta)
    # (v_i rho_ij) v_j is the expression the dense op @ rho @ op.T
    # evaluates per element, so the sums match it bit for bit
    lost = np.zeros((dim, dim), dtype=complex)
    for l, v in enumerate(pure_loss_kraus(spec.eta, l_max, dim)):
        lost[: dim - l, : dim - l] += v[:, None] * c[l:, l:] * v
    # the amplifier adds quanta into fresh headroom, so its order is not
    # bounded by the input dimension
    k_max = _amplifier_order(np.diagonal(lost).real, spec.gain)
    out_dim = dim + k_max
    out = np.zeros((out_dim, out_dim), dtype=complex)
    for k, v in enumerate(amplifier_kraus(spec.gain, k_max, out_dim)):
        out[k : k + dim, k : k + dim] += v[:dim, None] * lost * v[:dim]
    trace = float(np.trace(out).real)
    if not trace >= 1.0 - TRACE_DEFICIT_TOL:
        raise TruncationRiskError(
            f"channel output keeps trace {trace:.8f} < 1 - {TRACE_DEFICIT_TOL:.0e} "
            f"at l_max={l_max}, k_max={k_max}",
            magnitude=1.0 - trace,
        )
    out /= trace
    return trim_density(FockDensityMatrix(out), tol=1e-12)


def thermal_loss_phase_space(rho, spec, grid):
    """Rescale-and-convolve realization of the thermal-loss channel on ``grid``.

    W_out = L_sqrt(tau)[W_in] * L_sqrt(1-tau)[W_thermal]: the field of rho
    dilated by sqrt(tau) and convolved with the Gaussian of covariance
    spec.noise I is chi_q D chi_p^T / sqrt(pi) exactly for the tables of
    ``_hermite_functions`` at (tau, 2 spec.noise).  A grid for the output's
    moments (``spec.output_moments``) holds it.  The field of an
    anti-Hermitian part of rho is synthesized too, and a residue past
    IMAG_RESIDUE_HARD raises ConsistencyError.  The output is renormalized
    on the grid; a mass off 1 by more than MASS_TOL (or NaN) raises
    TruncationRiskError: below 1 the output spreads past the grid, above 1
    the grid is too coarse to integrate it.
    """
    maps = ((spec.tau, 2.0 * spec.noise),) * 2
    (values,) = _synthesize_mapped(as_density(rho).entries, grid, False, maps)
    values = _real_part(values, "phase-space channel output")
    mass = integrate(values, grid)
    if not abs(mass - 1.0) <= MASS_TOL:
        if mass > 1.0:
            cause = "the grid is too coarse for the output field (--grid-points)"
        else:
            cause = (f"{1.0 - mass:.3e} is lost off the grid; a wider grid "
                     "(--extent-sigmas) is needed")
        raise TruncationRiskError(
            f"phase-space channel output keeps mass {mass:.6f}, beyond "
            f"{MASS_TOL:.0e} of 1: {cause}",
            magnitude=abs(mass - 1.0),
        )
    return WignerField(grid, values / mass)

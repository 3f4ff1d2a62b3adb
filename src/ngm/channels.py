"""Thermal-loss evolution through two independent engines.

A thermal-loss channel (transmissivity tau, environment occupancy n_bar)
decomposes exactly into a pure-loss channel of transmissivity eta = tau/G
followed by a quantum-limited amplifier of gain G = 1 + (1-tau) n_bar.
The Fock engine applies the truncated Kraus sums of both pieces.  Each
Kraus operator of either piece has one nonzero diagonal (a scaled a^l or
(a^dag)^k), so A rho A^dag is a shifted copy of rho scaled by the outer
product of that diagonal with itself: O(dim^2) per order.  One table per
piece holds the diagonals, row k for order k and column n for input level
n.  Its squared rows are the closed-form shares of the trace each order
keeps (binomial for the loss, negative-binomial for the amplifier), so
the same numbers pick the orders and build the operators.  The
phase-space engine rescales the Wigner field by sqrt(tau) and convolves
it with the rescaled thermal Gaussian, exactly, on each Hermite-Gauss
mode.  The two engines share no code past the input's coefficients D,
which makes their agreement a meaningful cross-check rather than a
tautology.  The spec owns the channel's action on moments, (d, V) ->
(sqrt(tau) d, tau V + (1 - tau)(n_bar + 1/2) I), which sizes the
phase-space engine's grid.
"""

import numpy as np

from .errors import CapacityError, TruncationRiskError
from .fock import FockDensityMatrix, as_density, trim_density
from .numerics import _log_factorial
from .wigner import MASS_TOL, _expand, _independent_cells, _require_finite, _synthesize_mapped

__all__ = [
    "ThermalLossSpec",
    "thermal_loss_fock",
    "thermal_loss_phase_space",
]

#: least per-piece Kraus order; the table's shares raise it where needed
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


def _loss_table(eta, dim):
    """Pure-loss amplitudes, all dim orders: row l, column n holds
    sqrt(C(n, l) eta^(n-l) (1-eta)^l), the entry at |n - l><n| of the l-th
    Kraus operator sqrt((1-eta)^l / l!) eta^{n/2} a^l."""
    l, n = np.nonzero(np.arange(dim)[:, None] <= np.arange(dim))
    lf = _log_factorial(dim)
    amps = np.zeros((dim, dim))
    amps[l, n] = np.exp(0.5 * (
        l * np.log(1.0 - eta) - lf[l] + (n - l) * np.log(eta) + lf[n] - lf[n - l]
    ))
    return amps


def _amplifier_table(gain, rows, dim):
    """Amplifier amplitudes, orders 0..rows-1: row k, column m < dim holds
    sqrt(C(m + k, k) gain^-(m+1) (1 - 1/gain)^k), the entry at |m + k><m|
    of the k-th operator sqrt(((gain-1)/gain)^k / (k! gain)) (a^dag)^k gain^{-n/2}."""
    if gain == 1.0:  # the identity, where the closed form reads 0 ln 0
        return np.outer(np.arange(rows) == 0, np.ones(dim))
    k, m = np.arange(rows)[:, None], np.arange(dim)
    lf = _log_factorial(rows + dim)
    return np.exp(0.5 * (
        k * np.log((gain - 1.0) / gain) - lf[k] - np.log(gain)
        + lf[m + k] - lf[m] - m * np.log(gain)
    ))


def _kept(amps, pop, floor):
    """Rows 0..k of amps for the least k >= floor at which they keep all but
    TRACE_DEFICIT_TOL / 2 of the populations pop, or None if no k does."""
    kept = np.cumsum(amps**2 @ pop)
    hit = np.flatnonzero(kept >= pop.sum() - 0.5 * TRACE_DEFICIT_TOL)
    return amps[: max(floor, int(hit[0])) + 1] if hit.size else None


def _amplifier_rows(q, gain):
    """The amplifier's kept rows for populations q, of 31 or else 1025 rows
    (it adds quanta, so dim does not bound its order); else CapacityError."""
    for rows in (KRAUS_ORDER_FLOOR + 1, _KRAUS_ORDER_CEILING + 1):
        amps = _kept(_amplifier_table(gain, rows, q.size), q, KRAUS_ORDER_FLOOR)
        if amps is not None:
            return amps
    raise CapacityError(
        f"the amplifier needs more than {_KRAUS_ORDER_CEILING} Kraus orders "
        f"to keep the trace within {TRACE_DEFICIT_TOL:.0e}"
    )


def _kraus_sum(c, amps, up):
    """sum_k A_k c A_k^dag, where A_k takes |n> to v_n |n + k> (up) or to
    v_n |n - k> for row k, v, of amps.  Each term is a shifted copy of c
    scaled as (v_i c_ij) v_j, the expression the dense op @ c @ op.T
    evaluates per element, so the sums match it bit for bit."""
    dim = len(c)
    out = np.zeros((dim + len(amps) - 1,) * 2 if up else c.shape, dtype=complex)
    if up:
        for k, v in enumerate(amps):
            out[k : k + dim, k : k + dim] += v[:, None] * c * v
    else:
        for l, v in enumerate(amps):
            out[: dim - l, : dim - l] += v[l:, None] * c[l:, l:] * v[l:]
    return out


def thermal_loss_fock(rho, spec):
    """Loss-then-amplifier Kraus evolution in the truncated Fock basis.

    Each piece takes the least order whose table rows keep all but
    TRACE_DEFICIT_TOL / 2 of its input's trace, at least min(dim - 1, 30)
    for the loss and 30 for the amplifier (past 1024, CapacityError).  A
    deficit beyond TRACE_DEFICIT_TOL after the sums raises; the output is
    renormalized and trimmed.  At tau = 1 too, a non-finite rho raises
    NumericalError, and a trace or a least eigenvalue of the Hermitian part
    past ``FockDensityMatrix.validate``'s bounds NormalizationError; an
    anti-Hermitian part is left to the synthesis's residue check.
    """
    rho = as_density(rho)
    c = rho.entries
    _require_finite(c, "density matrix")
    rho.validate(herm_tol=np.inf)
    if spec.tau == 1.0:
        return rho
    floor = min(rho.dim - 1, KRAUS_ORDER_FLOOR)
    loss = _kept(_loss_table(spec.eta, rho.dim), np.diagonal(c).real, floor)
    lost = _kraus_sum(c, loss, up=False)
    amps = _amplifier_rows(np.diagonal(lost).real, spec.gain)
    out = _kraus_sum(lost, amps, up=True)
    trace = float(np.trace(out).real)
    if not trace >= 1.0 - TRACE_DEFICIT_TOL:
        raise TruncationRiskError(
            f"channel output keeps trace {trace:.8f} < 1 - {TRACE_DEFICIT_TOL:.0e} "
            f"at l_max={len(loss) - 1}, k_max={len(amps) - 1}",
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
    moments (``spec.output_moments``) holds it.  rho is checked as in
    ``thermal_loss_fock``; the field of an anti-Hermitian part of rho is
    synthesized too, and a residue past IMAG_RESIDUE_HARD raises
    ConsistencyError.  The output is renormalized on the grid; a mass off 1
    by more than MASS_TOL (or NaN) raises TruncationRiskError: below 1 the
    output spreads past the grid, above 1 the grid is too coarse to
    integrate it.
    """
    rho = as_density(rho)
    expansion = _expand(rho.entries)  # a non-finite rho raises here first
    rho.validate(herm_tol=np.inf)
    maps = ((spec.tau, 2.0 * spec.noise),) * 2
    field = _synthesize_mapped(expansion, grid, False, maps, "phase-space channel output")
    (W, _, _), _, _, wq, wp = _independent_cells(field)
    mass = wq @ W @ wp
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
    W /= mass
    return field

"""Complex-valued non-Gaussianity measure on sampled Wigner fields.

The measure is the relative entropy of a Wigner function against its
Gaussian associate (the Gaussian sharing the field's displacement and
covariance).  Negative Wigner regions make the plain relative entropy
complex; splitting the logarithm by sign gives

    Re mu = h[W_G] - Re h[W],      Re h[W] = -int W ln|W|,
    Im mu = pi |V_-|,              |V_-|   = (1/2) int (|W| - W),

with the branch fixed so Im mu is non-negative.  Both parts vanish
together exactly on Gaussian states.  Against an arbitrary Gaussian the
cross term has a closed form, so scans over Gaussian arguments reuse one
entropy quadrature.
"""

import warnings

import numpy as np

from .errors import ConsistencyError, NormalizationError, NumericalError
from .fock import as_density
from .numerics import integrate
from .wigner import GaussianMoments, _covariance_logdet, _quadrature, wigner_from_fock

__all__ = [
    "MeasureValue",
    "wigner_entropy_real",
    "gaussian_associate_entropy",
    "measure_from_field",
    "ngm",
    "wre_vs_gaussian",
    "minimizer_scan",
    "product_measure_check",
    "entropy_upper_bound_check",
]

class MeasureValue:
    """Measure components in nats; ``mu = re_mu + 1j * im_mu``."""

    def __init__(self, re_mu, im_mu, re_entropy, gaussian_entropy, neg_volume, grid=None):
        self.re_mu = float(re_mu)
        self.im_mu = float(im_mu)
        self.re_entropy = float(re_entropy)
        self.gaussian_entropy = float(gaussian_entropy)
        self.neg_volume = float(neg_volume)
        self.grid = grid

    @property
    def mu(self):
        return complex(self.re_mu, self.im_mu)

    def validate(self):
        if not abs(self.im_mu - np.pi * self.neg_volume) <= 1e-10:
            raise ConsistencyError(
                "imaginary part does not equal pi times the negative volume"
            )
        if not self.im_mu >= 0.0:
            raise ConsistencyError("imaginary part must be non-negative")
        if not abs(self.re_mu - (self.gaussian_entropy - self.re_entropy)) <= 1e-12:
            raise ConsistencyError(
                "real part does not equal the entropy difference"
            )
        return self

    def to_json(self):
        out = {
            "re_mu": self.re_mu,
            "im_mu": self.im_mu,
            "re_entropy": self.re_entropy,
            "gaussian_entropy": self.gaussian_entropy,
            "neg_volume": self.neg_volume,
        }
        if self.grid is not None:
            g = self.grid
            out["grid"] = {
                "q_min": g.q_min,
                "q_max": g.q_max,
                "p_min": g.p_min,
                "p_max": g.p_max,
                "n_q": g.n_q,
                "n_p": g.n_p,
            }
        return out

    def __repr__(self):
        return (
            f"MeasureValue(re_mu={self.re_mu:.6g}, im_mu={self.im_mu:.6g}, "
            f"neg_volume={self.neg_volume:.6g})"
        )


def wigner_entropy_real(field):
    """-int W ln|W|, with the integrand at its limit, 0, where W = 0.

    The field's mass is checked, as for every other integral of it.
    """
    return _quadrature(field)[1]


def _physical_quadrature(field):
    """``_quadrature`` with the moments checked against the uncertainty bound."""
    m, entropy, neg = _quadrature(field)
    return m.validate(physical=True), entropy, neg


def gaussian_associate_entropy(m):
    """ln((2 pi e)^N sqrt(det V)), the entropy of the Gaussian associate."""
    return m.n_modes * np.log(2.0 * np.pi * np.e) + 0.5 * _covariance_logdet(m.V)


def _gaussian_cross(m, m_tilde):
    """-int W ln W~_G for any W with moments m (closed form, no quadrature)."""
    logdet = _covariance_logdet(m_tilde.V)
    inv = np.linalg.inv(m_tilde.V)
    delta = m.d - m_tilde.d
    return (
        m_tilde.n_modes * np.log(2.0 * np.pi)
        + 0.5 * logdet
        + 0.5 * float(np.trace(m.V @ inv))
        + 0.5 * float(delta @ inv @ delta)
    )


def measure_from_field(field):
    """Assemble the measure from a normalized field, in one quadrature pass."""
    m, re_h, neg = _physical_quadrature(field)
    h_g = gaussian_associate_entropy(m)
    re_mu = h_g - re_h
    if re_mu < -1e-3:
        warnings.warn(
            f"Re mu = {re_mu:.4e} is negative beyond quadrature noise; "
            "flagged for inspection, not rejected",
            RuntimeWarning,
            stacklevel=2,
        )
    return MeasureValue(re_mu, np.pi * neg, re_h, h_g, neg, grid=field.grid)


def ngm(state, grid=None, points=513):
    """Measure of a Fock-basis state; grid auto-sized from its moments."""
    rho = as_density(state)
    field = wigner_from_fock(rho, grid=grid, points=points)
    try:
        return measure_from_field(field)
    except NormalizationError as exc:
        # dq must be <= 3/4 of the top level's fringe spacing pi / (2 sqrt(2n + 1))
        g, n = field.grid, rho.dim - 1
        spacing = np.pi / (2.0 * np.sqrt(2.0 * n + 1.0))
        need = np.ceil(max(g.q_max - g.q_min, g.p_max - g.p_min) / (0.75 * spacing))
        raise NormalizationError(
            f"{exc}; grid step dq = {max(g.dq, g.dp):.4g} against the finest fringe "
            f"spacing {spacing:.4g} at n = {n}: {int(need + 1) | 1} points per axis "
            "put dq at <= 3/4 of it"
        ) from None


def wre_vs_gaussian(field, m_tilde):
    """Relative entropy of the field against an arbitrary Gaussian.

    Returns the (re, im) pair.  The real part uses the closed-form cross
    term, so only the field's own entropy is integrated; the imaginary
    part does not depend on the Gaussian argument at all.
    """
    m, re_h, neg = _physical_quadrature(field)
    return (float(-re_h + _gaussian_cross(m, m_tilde)), float(np.pi * neg))


def minimizer_scan(field, count=100, seed=0):
    """Check that the Gaussian associate minimizes the relative entropy.

    Draws randomized Gaussian arguments around the associate (covariance
    conjugated by I + 0.3 * symmetric uniform noise through the Cholesky
    factor, displacement shifted by 0.5 * uniform noise), evaluates the
    real part against each, and reports whether the associate attains the
    sample minimum.  Draws leaving the positive-definite cone are
    resampled.
    """
    m, re_h, _ = _physical_quadrature(field)
    associate = gaussian_associate_entropy(m) - re_h
    upper = np.linalg.cholesky(m.V).T
    eye = np.eye(m.d.size)
    rng = np.random.default_rng(seed)
    values = np.empty(count)
    rejections = 0
    filled = 0
    while filled < count:
        noise = rng.uniform(-1.0, 1.0, size=eye.shape)
        noise = 0.5 * (noise + noise.T)
        factor = upper @ (eye + 0.3 * noise)
        v_tilde = factor.T @ factor
        if np.linalg.eigvalsh(v_tilde).min() <= 1e-12:
            rejections += 1
            continue
        d_tilde = m.d + 0.5 * rng.uniform(-1.0, 1.0, size=m.d.size)
        cand = GaussianMoments(d_tilde, v_tilde)
        values[filled] = -re_h + _gaussian_cross(m, cand)
        filled += 1
    worst_drop = float(values.min() - associate)
    return {
        "associate_re": float(associate),
        "sample_min_re": float(values.min()),
        "worst_drop": worst_drop,
        "is_minimum": bool(worst_drop >= -1e-10),
        "count": int(count),
        "rejections": int(rejections),
    }


def product_measure_check(rho_a, rho_b, points=97):
    """Additivity check on the two-mode product of single-mode states.

    The joint field W_A(q1,p1) * W_B(q2,p2) sits on the tensor product of
    the factors' Simpson grids, whose weights are products too, so every
    joint sum factors into the factors' own, exactly up to rounding: with
    grid masses m, entropies h = -int W ln|W| and negative volumes N, the
    joint entropy is m_B h_A + m_A h_B and the joint negative volume
    N_A m_B + m_A N_B + 2 N_A N_B (the product is negative where the
    factors' signs differ), and the 4x4 covariance is block-diagonal.
    Compares the joint real part against the sum of the factors and, when
    one factor is pointwise non-negative, the joint imaginary part against
    the other factor's.
    """
    fa = wigner_from_fock(as_density(rho_a), points=points)
    fb = wigner_from_fock(as_density(rho_b), points=points)
    (ma, ha, neg_a), (mb, hb, neg_b) = (_physical_quadrature(f) for f in (fa, fb))
    mass_a, mass_b = integrate(fa.values, fa.grid), integrate(fb.values, fb.grid)
    re_a = gaussian_associate_entropy(ma) - ha
    re_b = gaussian_associate_entropy(mb) - hb

    d4 = np.concatenate((ma.d, mb.d))
    v4 = np.zeros((4, 4))
    v4[:2, :2] = ma.V
    v4[2:, 2:] = mb.V
    h_g4 = gaussian_associate_entropy(GaussianMoments(d4, v4))
    re_joint = h_g4 - (mass_b * ha + mass_a * hb)
    im_joint = np.pi * (neg_a * mass_b + mass_a * neg_b + 2.0 * neg_a * neg_b)

    pos_a = float(fa.values.min()) >= -1e-9
    pos_b = float(fb.values.min()) >= -1e-9
    im_expected = np.pi * neg_b if pos_a else (np.pi * neg_a if pos_b else None)
    return {
        "re_mu_joint": float(re_joint),
        "re_mu_sum": float(re_a + re_b),
        "re_gap": float(re_joint - (re_a + re_b)),
        "im_mu_joint": float(im_joint),
        "im_mu_expected": im_expected,
        "im_gap": None if im_expected is None else float(im_joint - im_expected),
        "points": int(points),
        "cells": int(fa.values.size * fb.values.size),
    }


def entropy_upper_bound_check(field, re_form=False):
    """Check the entropy against the Gaussian-associate bound.

    The direct form requires a pointwise non-negative field (a genuine
    probability density); for fields with negative regions pass
    ``re_form=True`` to check the real-part entropy instead.
    """
    w_min = float(field.values.min())
    if not re_form and w_min < -1e-9:
        raise NumericalError(
            f"field takes negative values (min {w_min:.3e}); the direct bound "
            "needs a non-negative density - use re_form=True"
        )
    m, entropy, _ = _physical_quadrature(field)
    bound = gaussian_associate_entropy(m)
    return {
        "entropy": float(entropy),
        "bound": float(bound),
        "slack": float(bound - entropy),
        "holds": bool(entropy <= bound + 1e-6),
        "form": "re" if re_form else "direct",
        "min_w": w_min,
    }

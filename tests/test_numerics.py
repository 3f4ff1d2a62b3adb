"""Grid, log-factorial, quadrature and convolution contracts.

Oracles here are independent of the production code paths: log-factorials
in 50-digit arithmetic, closed-form Gaussian integrals for the quadrature
and convolution checks, and scipy's own fast FFT lengths for the padding.
"""

import numpy as np
import pytest
from mpmath import mp, factorial
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from ngm.errors import TruncationRiskError
from ngm.numerics import (
    PhaseSpaceGrid,
    _convolve_gaussians,
    _fast_len,
    _log_factorial,
    axis_weights,
    convolve_gaussian,
    integrate,
)

mp.dps = 50


def sampled_convolve(a, b, grid):
    """Linear convolution of two sampled fields, cropped to the grid, whose
    axes must hold the origin: the sampled-kernel reference route."""
    iq = int(round(-grid.q_min / grid.dq))
    ip = int(round(-grid.p_min / grid.dp))
    full = fftconvolve(a, b, mode="full")
    return full[iq : iq + grid.n_q, ip : ip + grid.n_p] * (grid.dq * grid.dp)


def gauss2d(grid, mean, cov):
    """Sampled normalized Gaussian, the closed-form reference field."""
    Q, P = grid.meshes()
    inv = np.linalg.inv(cov)
    dq = Q - mean[0]
    dp = P - mean[1]
    quad = inv[0, 0] * dq**2 + 2 * inv[0, 1] * dq * dp + inv[1, 1] * dp**2
    return np.exp(-0.5 * quad) / (2 * np.pi * np.sqrt(np.linalg.det(cov)))


# ----------------------------------------------------------- log-factorial


def test_log_factorial_table():
    table = _log_factorial(256)
    assert table[0] == 0.0
    assert table[5] == pytest.approx(np.log(120.0), rel=1e-14)
    assert table[170] == pytest.approx(float(mp.log(factorial(170))), rel=1e-13)
    assert table.size == 257
    # a longer table extends a shorter one bit for bit
    longer = _log_factorial(1000)
    assert np.array_equal(longer[:257], table)
    assert longer[1000] == pytest.approx(float(mp.log(factorial(1000))), rel=1e-13)


# -------------------------------------------------------------------- grid


def test_grid_rounds_up_to_odd():
    g = PhaseSpaceGrid(-6, 6, -6, 6, 128, 512)
    assert g.n_q == 129 and g.n_p == 513
    assert g.q[0] == -6 and g.q[-1] == 6


def test_grid_minimum_points_policy():
    with pytest.raises(ValueError):
        PhaseSpaceGrid(-6, 6, -6, 6, 33, 129)
    g = PhaseSpaceGrid(-2, 2, -2, 2, 17, 17, min_points=9)
    assert g.n_q == 17


def test_grid_rejects_bad_extents():
    with pytest.raises(ValueError):
        PhaseSpaceGrid(6, -6, -6, 6, 129, 129)


def test_grid_mesh_layout():
    g = PhaseSpaceGrid(-1, 1, -2, 2, 65, 65, min_points=65)
    Q, P = g.meshes()
    assert Q[3, 0] == g.q[3]
    assert P[0, 4] == g.p[4]


def test_grid_for_moments_covers_displacement():
    d = np.array([2.0 * np.sqrt(2.0), 0.0])
    V = 0.5 * np.eye(2)
    g = PhaseSpaceGrid.for_moments(d, V, points=129)
    want = 5.5 * np.sqrt(0.5 + d[0] ** 2)
    assert g.q_max == pytest.approx(want)
    assert g.p_max == 6.0  # floor kicks in on the undisplaced axis
    assert g.n_q == 129


def test_grid_for_moments_covers_displaced_wide_axis():
    # displacement aligned with the wide axis: the mean + 5.5 sigma term
    # must win over the rms rule so the near tail stays covered
    d = np.array([0.0, -0.43])
    V = np.diag([0.15, 1.66])
    g = PhaseSpaceGrid.for_moments(d, V, points=129)
    assert g.p_max >= abs(d[1]) + 5.5 * np.sqrt(V[1, 1])


# --------------------------------------------------------------- integrate


def test_integrate_vacuum_gaussian_unit_mass():
    g = PhaseSpaceGrid(-6, 6, -6, 6, 129, 129)
    w = gauss2d(g, [0.0, 0.0], 0.5 * np.eye(2))
    assert integrate(w, g) == pytest.approx(1.0, abs=1e-12)


def test_integrate_second_moment():
    g = PhaseSpaceGrid(-7, 7, -7, 7, 129, 129)
    Q, _ = g.meshes()
    w = gauss2d(g, [0.0, 0.0], np.diag([0.8, 0.4]))
    assert integrate(Q**2 * w, g) == pytest.approx(0.8, abs=1e-10)


def test_integrate_polynomial_exactness():
    # Simpson is exact for cubics on each axis
    g = PhaseSpaceGrid(0, 1, 0, 1, 65, 65)
    Q, P = g.meshes()
    val = integrate(Q**3 * P**2, g)
    assert val == pytest.approx(1.0 / 12.0, rel=1e-13)


def test_integrate_shape_mismatch():
    g = PhaseSpaceGrid(-1, 1, -1, 1, 65, 65)
    with pytest.raises(ValueError):
        integrate(np.zeros((64, 65)), g)


def test_axis_weights_even_count_falls_back_to_trapezoid():
    w = axis_weights(4, 0.5)
    assert np.allclose(w, [0.25, 0.5, 0.5, 0.25])
    w = axis_weights(5, 0.5)
    assert np.allclose(w, np.array([1, 4, 2, 4, 1]) / 6.0)


# ---------------------------------------------------------------- convolve


def test_convolve_gaussians_sum_covariance():
    g = PhaseSpaceGrid(-8, 8, -8, 8, 257, 257)
    a = gauss2d(g, [0.0, 0.0], np.diag([0.5, 0.5]))
    want = gauss2d(g, [0.0, 0.0], np.diag([0.8, 1.2]))
    got = convolve_gaussian(a, g, np.diag([0.3, 0.7]))
    assert np.max(np.abs(got - want)) < 1e-8
    assert integrate(got, g) == pytest.approx(1.0, abs=1e-9)


def test_convolve_narrow_kernel_near_identity():
    g = PhaseSpaceGrid(-8, 8, -8, 8, 257, 257)
    f = gauss2d(g, [1.0, -0.5], np.diag([0.6, 0.9]))
    s2 = (2 * g.dq) ** 2
    got = convolve_gaussian(f, g, s2 * np.eye(2))
    # smoothing bias ~ s2/2 * laplacian(f)
    assert np.max(np.abs(got - f)) < 5e-3


def test_convolve_commutes():
    # two smoothings in either order
    g = PhaseSpaceGrid(-8, 8, -8, 8, 129, 129)
    a = gauss2d(g, [0.6, 0.0], np.diag([0.5, 0.8]))
    first, second = np.diag([0.2, 0.3]), np.array([[0.2, 0.05], [0.05, 0.1]])
    ab = convolve_gaussian(convolve_gaussian(a, g, first), g, second)
    ba = convolve_gaussian(convolve_gaussian(a, g, second), g, first)
    assert np.max(np.abs(ab - ba)) < 1e-13


def test_convolve_boundary_decay_enforced():
    g = PhaseSpaceGrid(-6, 6, -6, 6, 129, 129)
    flat = np.ones(g.shape)
    with pytest.raises(TruncationRiskError) as err:
        convolve_gaussian(flat, g, 0.5 * np.eye(2))
    assert err.value.magnitude == pytest.approx(1.0)


def test_convolve_gaussian_matches_sampled_kernel():
    g = PhaseSpaceGrid(-8, 8, -8, 8, 257, 257)
    f = gauss2d(g, [0.8, 0.3], np.diag([0.5, 0.5]))
    cov = np.diag([0.2, 0.35])
    kern = gauss2d(g, [0.0, 0.0], cov)
    direct = sampled_convolve(f, kern, g)
    spectral = convolve_gaussian(f, g, cov)
    assert np.max(np.abs(direct - spectral)) < 1e-9


def test_convolve_gaussian_narrow_kernel_exact():
    # kernel sigma far below the mesh: sampled kernels fail here, the
    # spectral route must still reproduce the exact summed covariance
    g = PhaseSpaceGrid(-8, 8, -8, 8, 257, 257)
    s2 = 1e-4  # sigma ~ 0.01 << dq ~ 0.06
    f = gauss2d(g, [0.0, 0.0], 0.5 * np.eye(2))
    want = gauss2d(g, [0.0, 0.0], (0.5 + s2) * np.eye(2))
    got = convolve_gaussian(f, g, s2 * np.eye(2))
    assert np.max(np.abs(got - want)) < 1e-10


def test_convolve_gaussian_zero_cov_is_identity():
    g = PhaseSpaceGrid(-6, 6, -6, 6, 129, 129)
    f = gauss2d(g, [0.0, 0.0], 0.5 * np.eye(2))
    got = convolve_gaussian(f, g, np.zeros((2, 2)))
    assert np.array_equal(got, f)


def test_convolve_gaussian_mass_preserved():
    g = PhaseSpaceGrid(-9, 9, -9, 9, 257, 257)
    f = gauss2d(g, [0.5, 0.5], np.diag([0.7, 0.5]))
    got = convolve_gaussian(f, g, np.diag([0.3, 0.3]))
    assert integrate(got, g) == pytest.approx(1.0, abs=1e-9)


def padded_convolve_gaussian(values, grid, cov):
    """The spectral Gaussian convolution at 2n - 1 points per axis, with
    the kernel built as one 2-D array: the route before fast padded
    lengths and factored kernels, kept as the oracle."""
    nq, np_ = grid.shape
    shape = (2 * nq - 1, 2 * np_ - 1)
    wq = 2.0 * np.pi * np.fft.fftfreq(shape[0], d=grid.dq)
    wp = 2.0 * np.pi * np.fft.rfftfreq(shape[1], d=grid.dp)
    quad = (
        cov[0, 0] * wq[:, None] ** 2
        + 2.0 * cov[0, 1] * wq[:, None] * wp[None, :]
        + cov[1, 1] * wp[None, :] ** 2
    )
    spec = np.fft.rfft2(values, s=shape) * np.exp(-0.5 * quad)
    return np.fft.irfft2(spec, s=shape)[:nq, :np_]


SMOOTHING_COVS = [
    np.diag([1e-3, 2.5e-4]),
    np.diag([0.3, 0.05]),
    np.array([[0.2, 0.07], [0.07, 0.3]]),
    np.array([[1e-3, -4e-4], [-4e-4, 5e-4]]),
]


def oscillating_field(grid):
    # an off-centre, tilted, sign-changing field: no symmetry hides an
    # axis or padding mistake
    Q, P = grid.meshes()
    return np.exp(-((Q - 0.5) ** 2) / 0.8 - (P + 0.3) ** 2 / 1.1 - 0.3 * Q * P) * np.cos(2 * Q)


@pytest.mark.parametrize("cov", SMOOTHING_COVS + [np.zeros((2, 2))])
def test_convolve_gaussian_matches_padded_oracle(cov):
    # unequal point counts, so the two axes pad to different lengths
    g = PhaseSpaceGrid(-8, 8, -7, 7, 257, 193)
    f = oscillating_field(g)
    got = convolve_gaussian(f, g, cov)
    assert np.max(np.abs(got - padded_convolve_gaussian(f, g, cov))) < 1e-14


def test_convolve_gaussians_equal_single_calls_bitwise():
    g = PhaseSpaceGrid(-8, 8, -7, 7, 257, 193)
    f = oscillating_field(g)
    got = _convolve_gaussians(f, g, SMOOTHING_COVS)
    assert len(got) == len(SMOOTHING_COVS)
    for out, cov in zip(got, SMOOTHING_COVS):
        assert out.shape == g.shape and out.flags.owndata
        assert np.array_equal(out, convolve_gaussian(f, g, cov))


def test_convolve_gaussians_check_boundary():
    g = PhaseSpaceGrid(-6, 6, -6, 6, 129, 129)
    with pytest.raises(TruncationRiskError):
        _convolve_gaussians(np.ones(g.shape), g, [1e-3 * np.eye(2), np.eye(2)])


def test_fast_len_matches_scipy():
    # the pad lengths, and so every smoothed field, are scipy's
    for t in range(1, 20001):
        assert _fast_len(t) == next_fast_len(t), t
        assert _fast_len(t, real=True) == next_fast_len(t, real=True), t

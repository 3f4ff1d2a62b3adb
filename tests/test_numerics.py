"""Grid, log-factorial, recurrence, quadrature and convolution contracts.

Oracles here are independent of the production code paths: log-factorials
and three-term recurrences in 50-digit arithmetic, the Hermite tables as
the library built them before the shared recurrence, brute-force
quadrature for the dilated and smoothed tables, closed-form Gaussian
integrals for the quadrature and convolution checks, and the padded FFT
convolution of sampled fields the library once ran.
"""

import ast
import pathlib

import numpy as np
import pytest
from mpmath import mp, factorial
from scipy.signal import fftconvolve

import ngm as ngm_package
from ngm import wigner
from ngm.fock import FockDensityMatrix, as_density, coherent, displaced_squeezed, random_qudit
from ngm.numerics import (
    PhaseSpaceGrid,
    _log_factorial,
    _three_term,
    axis_weights,
    integrate,
)
from ngm.wigner import SUPPORT_MARGIN, _hermite_functions, wigner_from_fock

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


# ---------------------------------------------------- three-term recurrence


def split_hermite_functions(x, n):
    """phi_0(x) .. phi_{n-1}(x) by the two loops the library ran before
    the shared recurrence: the plain one up to |x| = 37, and past it, up
    to SUPPORT_MARGIN beyond the last turning point, one on mantissas with
    a binary exponent per point renormalised at every order."""
    table = np.empty((n, x.size))
    a = np.sqrt(2.0 / np.arange(1.0, n))
    b = np.sqrt(np.arange(n - 1.0) / np.arange(1.0, n))
    table[0] = np.pi**-0.25 * np.exp(-0.5 * x * x)
    if n > 1:
        np.multiply(x, a[0] * table[0], out=table[1])
    tmp = np.empty_like(x)
    for k in range(2, n):
        np.multiply(x, table[k - 1], out=table[k])
        table[k] *= a[k - 1]
        np.multiply(table[k - 2], b[k - 1], out=tmp)
        table[k] -= tmp
    far = np.flatnonzero(np.abs(x) > 37.0)
    table[:, far] = 0.0
    far = far[np.abs(x[far]) < np.sqrt(2.0 * n - 1.0) + SUPPORT_MARGIN]
    xf = x[far]
    log2 = -0.5 * xf * xf / np.log(2.0) - 0.25 * np.log2(np.pi)
    exp = np.floor(log2)
    cur, prev = np.exp2(log2 - exp), np.zeros_like(xf)
    exp = exp.astype(int)
    table[0, far] = np.ldexp(cur, exp)
    for k in range(1, n):
        cur, prev = a[k - 1] * xf * cur - b[k - 1] * prev, cur
        cur, shift = np.frexp(cur)
        prev = np.ldexp(prev, -shift)
        exp += shift
        table[k, far] = np.ldexp(cur, exp)
    return table


def mp_three_term(z, y0, step, back, n):
    """y_0 .. y_{n-1} of y_{k+1} = step_k z y_k - back_k y_{k-1} in 50 digits."""
    y = [mp.mpmathify(y0)]
    if n > 1:
        y.append(step[0] * z * y[0])
    for k in range(1, n - 1):
        y.append(step[k] * z * y[k] - back[k] * y[k - 1])
    return y


def mp_hermite_functions(x, n):
    x = mp.mpf(x)
    step = [mp.sqrt(mp.mpf(2) / (k + 1)) for k in range(n - 1)]
    back = [mp.sqrt(mp.mpf(k) / (k + 1)) for k in range(n - 1)]
    y0 = mp.pi ** mp.mpf(-0.25) * mp.exp(-x * x / 2)
    return np.array([float(v) for v in mp_three_term(x, y0, step, back, n)])


@pytest.mark.parametrize("n", [1, 2, 13, 18, 121, 321, 403])
def test_hermite_table_is_the_plain_loop_bit_for_bit(n):
    # up to |x| = 37 the split loops ran the plain recurrence; inside the
    # support the shared one is that recurrence to the bit, and past it
    # the split loops kept values below 1.5e-37 where the table is now 0
    x = np.concatenate((np.linspace(-37.0, 37.0, 2001), [-25.1, 0.0, 13.7]))
    got = _hermite_functions(x, n)
    want = split_hermite_functions(x, n)
    inside = np.abs(x) < np.sqrt(2.0 * n - 1.0) + SUPPORT_MARGIN
    assert np.array_equal(got[:, inside].view(np.int64), want[:, inside].view(np.int64))
    assert np.all(got[:, ~inside] == 0.0) and np.all(np.abs(want[:, ~inside]) < 1.5e-37)


@pytest.mark.parametrize("n", [403, 802])
def test_hermite_table_error_no_worse_than_split_loops(n):
    # per point, the largest error over the orders relative to the largest
    # value: the seed past |x| = 37.6 now enters exact to rounding, where
    # the split loops' log2 seed erred by up to 1e-13
    x = np.array([0.3, 5.0, 9.9, 20.0, 30.0, 36.5, 37.5, 38.0, 40.0, 45.0, 50.0, 55.0, 60.0])
    want = np.array([mp_hermite_functions(v, n) for v in x]).T
    scale = np.maximum(np.abs(want).max(axis=0), np.finfo(float).tiny)
    got = np.abs(_hermite_functions(x, n) - want).max(axis=0) / scale
    split = np.abs(split_hermite_functions(x, n) - want).max(axis=0) / scale
    inside = np.abs(x) < np.sqrt(2.0 * n - 1.0) + SUPPORT_MARGIN
    assert np.all(got[inside] <= 1.1 * split[inside]), (got, split)
    assert got[inside].max() < 1e-14
    assert np.all(_hermite_functions(x, n)[:, ~inside] == 0.0)


@pytest.mark.parametrize("n", [2, 121, 802])
def test_hermite_table_parity_is_exact(n):
    # phi_j(-x) = (-1)^j phi_j(x) to the bit (zeros aside, whose sign is
    # not kept), out past |x| ~ 37.6 where the seed takes a binary exponent
    x = np.concatenate((np.linspace(0.0, 60.0, 601), [37.5, 37.7, 45.0]))
    table = _hermite_functions(x, n)
    sign = (-1.0) ** np.arange(n)[:, None]
    assert np.array_equal(_hermite_functions(-x, n), sign * table)
    if n == 802:
        assert np.count_nonzero(table[:, x > 37.6]) > 0


#: (tau, v) pairs of the table family: the smoothing maps (1, 2 eps), the
#: thermal-loss maps (tau, 2 (1 - tau)(n_bar + 1/2)) down to tau = 0.05 at
#: n_bar = 20, and a plain dilation (tau, 0) on either side of 1
TABLE_MAPS = [(1.0, 5e-4), (1.0, 2e-3), (0.9, 0.1), (0.7, 0.6), (0.5, 2.0),
              (0.05, 38.95), (0.64, 0.0), (1.5625, 0.0)]


@pytest.mark.parametrize("tau,v", TABLE_MAPS)
def test_table_family_matches_brute_force_quadrature(tau, v):
    # chi_j(u) = int phi_j(s) g_v(u - sqrt(tau) s) ds, phi_j from the plain
    # table, by the trapezoid rule on a mesh that resolves the kernel
    n = 30
    a = tau + v
    u = np.linspace(-8.0 * np.sqrt(a), 8.0 * np.sqrt(a), 81)
    got = _hermite_functions(u, n, tau, v)
    if v == 0.0:
        want = _hermite_functions(u / np.sqrt(tau), n) / np.sqrt(tau)
    else:
        s = np.linspace(-45.0, 45.0, 36001)
        r = u[:, None] - np.sqrt(tau) * s
        kernel = np.exp(-r * r / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)
        want = (_hermite_functions(s, n) * (s[1] - s[0])) @ kernel.T
    assert np.max(np.abs(got - want)) < 1e-11


def mp_table_family(x, n, tau, v):
    """chi_0(x) .. chi_{n-1}(x) by the family's recurrence in 50 digits."""
    x, tau, v = mp.mpf(x), mp.mpf(tau), mp.mpf(v)
    a = tau + v
    step = [mp.sqrt(mp.mpf(2) / (k + 1)) for k in range(n - 1)]
    back = [(tau - v) / a * mp.sqrt(mp.mpf(k) / (k + 1)) for k in range(n - 1)]
    y0 = mp.pi ** mp.mpf(-0.25) / mp.sqrt(a) * mp.exp(-x * x / (2 * a))
    z = mp.sqrt(tau) * x / a
    return np.array([float(val) for val in mp_three_term(z, y0, step, back, n)])


@pytest.mark.parametrize("tau,v", [(1.0, 2e-3), (0.05, 38.95), (1.5625, 0.0)])
def test_table_family_far_field(tau, v):
    # past |x| ~ 37.6 sqrt(a) the seed takes a binary exponent; the table
    # follows the recurrence in 50 digits there, to the plain table's
    # error plus the seed's conditioning (x^2 / 2a carries a few ulps of
    # itself when x^2 / a is not exact), and is 0 past SUPPORT_MARGIN
    # sqrt(a) beyond the last turning point
    n = 403
    w = np.array([0.3, 9.9, 30.0, 37.5, 38.0, 45.0, 55.0, 60.0])
    x = w * np.sqrt(tau + v)
    want = np.array([mp_table_family(val, n, tau, v) for val in x]).T
    scale = np.maximum(np.abs(want).max(axis=0), np.finfo(float).tiny)
    table = _hermite_functions(x, n, tau, v)
    inside = w < np.sqrt(2.0 * n - 1.0) + SUPPORT_MARGIN
    error = np.abs(table - want).max(axis=0) / scale
    assert np.all((error < 1e-14 + 4.0 * np.finfo(float).eps * w * w)[inside])
    assert np.all(table[:, ~inside] == 0.0) and np.all(np.abs(want[:, ~inside]) < 1e-36)
    # chi_j has the parity of phi_j, to the bit
    sign = (-1.0) ** np.arange(n)[:, None]
    assert np.array_equal(_hermite_functions(-x, n, tau, v), sign * table)


def test_vacuum_table_has_one_order():
    # n = 1: no step at all, so the seed is the table
    x = np.array([0.0, 1.5, -12.9, 13.0, 40.0])
    table = _hermite_functions(x, 1)
    assert table.shape == (1, 5)
    assert np.array_equal(table[0, :3], np.pi**-0.25 * np.exp(-0.5 * x[:3] ** 2))
    assert np.all(table[0, 3:] == 0.0)
    # a seed carried as mantissa and exponent, and one below 2^-1100
    got = _three_term(np.ones(3), np.array([1.5, 1.5, 1.0]),
                      np.array([0.0, -1050.0, -1101.0]), np.empty(0), np.empty(0), 1)
    assert np.array_equal(got, [[1.5, 1.5 * 2.0**-1050, 0.0]])


def test_dead_columns_are_zero():
    # seeded at 2^-1200, a column with z = 2^20 reaches 2^-1020 in nine
    # orders and is computed; with z = 0.5 it grows by at most 1 per order,
    # so it is bounded below 2^-1100 and 0, as is a column whose exponent
    # leaves the integer range
    step, back = np.ones(9), np.full(9, 0.5)
    back[0] = 0.0
    z = np.array([2.0**20, 0.5, 2.0**20])
    got = _three_term(z, np.ones(3), np.array([-1200.0, -1200.0, -1e30]), step, back, 10)
    want = mp_three_term(mp.mpf(2) ** 20, mp.mpf(2) ** -1200, list(step), list(back), 10)
    want = np.array([float(v) for v in want])
    assert np.max(np.abs(got[:, 0] - want) / np.maximum(np.abs(want), 1e-300)) < 1e-15
    assert got[-1, 0] > 2.0**-1021
    assert np.all(got[:, 1:] == 0.0)


def test_complex_columns_keep_the_plain_arithmetic():
    # one column in range, whose entries are the plain recurrence to the
    # bit, and one seeded at 2^-1060 whose mantissa is rescaled on its way
    # past 2^300: it matches the recurrence in 50 digits
    n = 400
    step = np.ones(n - 1)
    back = 0.4 * np.sqrt(np.arange(n - 1.0) / np.arange(1.0, n))
    z = np.array([1.3 - 0.8j, 9.0 + 6.0j])
    mant0 = np.array([0.6 + 0.2j, 0.5 - 0.7j])
    got = _three_term(z, mant0, np.array([0.0, -1060.0]), step, back, n)
    # the same array layout, with the in-range column in both places
    plain = np.empty((n, 2), complex)
    plain[0] = mant0[0]
    plain[1] = z[0] * (step[0] * plain[0])
    for k in range(1, n - 1):
        plain[k + 1] = z[0] * plain[k] * step[k] - plain[k - 1] * back[k]
    assert np.array_equal(got[:, 0], plain[:, 0])
    y0 = mp.mpc(mant0[1]) * mp.mpf(2) ** -1060
    want = mp_three_term(mp.mpc(z[1]), y0, list(step), list(back), n)
    want = np.array([complex(v) for v in want])
    assert np.abs(want).max() > 2.0**300
    live = np.abs(want) > 1e-290
    assert np.max(np.abs(got[live, 1] - want[live]) / np.abs(want[live])) < 1e-13


def binary_exponent_uses(tree):
    """References to frexp or ldexp under tree: attributes, names, imports."""
    names = ("frexp", "ldexp")
    return sum(
        (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.alias) and node.name in names)
        for node in ast.walk(tree)
    )


def test_frexp_and_ldexp_live_in_the_recurrence_only():
    # one function of the package carries binary exponents
    src = pathlib.Path(ngm_package.__file__).parent
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(src.rglob("*.py"))]
    helper = [
        node for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_three_term"
    ]
    assert len(helper) == 1 and binary_exponent_uses(helper[0]) > 0
    assert sum(map(binary_exponent_uses, trees)) == binary_exponent_uses(helper[0])


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


@pytest.mark.parametrize("seed", range(4))
def test_centred_grid_axes_are_mirrored(seed):
    # an axis over [-e, e] is x[i] = -x[n-1-i] bit for bit with an exact 0.0
    # centre, and moves off np.linspace by at most 2 ulps of e (measured
    # over 10,000 random draws; about half of them move by more than one)
    rng = np.random.default_rng(seed)
    for _ in range(250):
        e = rng.uniform(0.5, 60.0)
        n = 2 * int(rng.integers(32, 1100)) + 1
        grid = PhaseSpaceGrid(-e, e, -2.0 * e, 2.0 * e, n, n + 2)
        for axis, extent in ((grid.q, e), (grid.p, 2.0 * e)):
            h = axis.size // 2
            assert np.array_equal(axis[:h].view(np.int64), (-axis[:h:-1]).view(np.int64))
            assert axis[h] == 0.0 and not np.signbit(axis[h])
            assert axis[0] == -extent and axis[-1] == extent
            assert np.max(np.abs(axis - np.linspace(-extent, extent, axis.size))) <= 2 * np.spacing(extent)


def test_off_centre_grid_axes_are_linspace():
    for q_min, q_max, p_min, p_max in ((25.3, 31.3, -1.0, 2.0), (-6.0, 6.5, -3.0, 3.0 + 1e-15)):
        grid = PhaseSpaceGrid(q_min, q_max, p_min, p_max, 41, 65, min_points=2)
        assert np.array_equal(grid.q.view(np.int64), np.linspace(q_min, q_max, 41).view(np.int64))
        assert np.array_equal(grid.p.view(np.int64), np.linspace(p_min, p_max, 65).view(np.int64))


def test_grid_minimum_points_policy():
    with pytest.raises(ValueError):
        PhaseSpaceGrid(-6, 6, -6, 6, 33, 129)
    g = PhaseSpaceGrid(-2, 2, -2, 2, 17, 17, min_points=9)
    assert g.n_q == 17


def test_grid_rejects_bad_extents():
    with pytest.raises(ValueError):
        PhaseSpaceGrid(6, -6, -6, 6, 129, 129)


@pytest.mark.parametrize(
    "extents", [(-np.inf, np.inf, -6, 6), (-6, 6, -6, np.inf), (-6, 6, np.nan, 6)]
)
def test_grid_rejects_non_finite_extents(extents):
    # an infinite extent passed q_max > q_min and gave NaN axes
    with pytest.raises(ValueError, match="finite"):
        PhaseSpaceGrid(*extents, 129, 129)


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


@pytest.mark.parametrize("d, V, sigmas", [
    ([np.nan, 0.0], 0.5 * np.eye(2), 5.5),
    ([0.0, 0.0], [[0.5, np.nan], [np.nan, 0.5]], 5.5),
    ([0.0, 0.0], [[np.nan, 0.0], [0.0, 0.5]], 5.5),
    ([0.0, 0.0], [[0.5, 0.0], [0.0, -0.5]], 5.5),
    ([0.0, 0.0], 0.5 * np.eye(2), np.nan),
    ([0.0, 0.0], 0.5 * np.eye(2), 0.0),
    ([0.0, 0.0], 0.5 * np.eye(2), -5.5),
], ids=["nan-mean", "nan-covariance", "nan-variance", "negative-variance", "nan-sigmas",
        "zero-sigmas", "negative-sigmas"])
def test_grid_for_moments_rejects_bad_moments(d, V, sigmas):
    # each fell through max() to the 6-unit floor, and a state was measured
    # on [-6, 6]^2 without a warning
    with pytest.raises(ValueError, match="sigmas"):
        PhaseSpaceGrid.for_moments(d, V, points=129, sigmas=sigmas)


def test_default_grid_rejects_nan_sigmas():
    with pytest.raises(ValueError, match="sigmas"):
        wigner.default_grid(coherent(1.0, 20), points=129, sigmas=np.nan)


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


def smoothed(state, grid, cov):
    """W of the state convolved with N(0, cov), cov diagonal: the table
    maps (1, 2 cov_qq) and (1, 2 cov_pp) on the state's coefficients."""
    expansion = wigner._expand(as_density(state).entries)
    maps = tuple((1.0, 2.0 * c) for c in np.diag(cov))
    (values,), fold = wigner._fields(expansion, grid.q, grid.p, False, maps=maps)
    return wigner._unfolded(values, grid.shape, fold)


def coherent_at(mean):
    """The coherent state whose Wigner function has this (q, p) mean."""
    return coherent((mean[0] + 1j * mean[1]) / np.sqrt(2.0))


def test_convolve_gaussians_sum_covariance():
    g = PhaseSpaceGrid(-8, 8, -8, 8, 257, 257)
    want = gauss2d(g, [0.0, 0.0], np.diag([0.8, 1.2]))
    got = smoothed(coherent(0.0), g, np.diag([0.3, 0.7]))
    assert np.max(np.abs(got - want)) < 1e-14
    assert integrate(got, g) == pytest.approx(1.0, abs=1e-9)


def test_convolve_narrow_kernel_near_identity():
    g = PhaseSpaceGrid(-8, 8, -8, 8, 257, 257)
    # a thermal state of covariance 0.9 I
    state = FockDensityMatrix(np.diag(0.4**np.arange(80.0) / 1.4 ** np.arange(1.0, 81.0)))
    f = wigner_from_fock(state, g).values
    s2 = (2 * g.dq) ** 2
    got = smoothed(state, g, s2 * np.eye(2))
    # smoothing bias ~ s2/2 * laplacian(f)
    assert np.max(np.abs(got - f)) < 5e-3


def test_convolve_commutes():
    # two smoothings in either order, the second by the padded FFT of the
    # first's samples, are the one smoothing by their sum
    g = PhaseSpaceGrid(-8, 8, -8, 8, 129, 129)
    state = random_qudit(3, seed=2)
    first, second = np.diag([0.2, 0.3]), np.diag([0.05, 0.1])
    ab = padded_convolve_gaussian(smoothed(state, g, first), g, second)
    ba = padded_convolve_gaussian(smoothed(state, g, second), g, first)
    both = smoothed(state, g, first + second)
    assert np.max(np.abs(ab - both)) < 1e-13
    assert np.max(np.abs(ba - both)) < 1e-13


def test_convolve_gaussian_matches_sampled_kernel():
    g = PhaseSpaceGrid(-8, 8, -8, 8, 257, 257)
    f = wigner_from_fock(coherent_at([0.8, 0.3]), g).values
    cov = np.diag([0.2, 0.35])
    kern = gauss2d(g, [0.0, 0.0], cov)
    direct = sampled_convolve(f, kern, g)
    spectral = smoothed(coherent_at([0.8, 0.3]), g, cov)
    assert np.max(np.abs(direct - spectral)) < 1e-9


def test_convolve_gaussian_narrow_kernel_exact():
    # kernel sigma far below the mesh: sampled kernels fail here, the
    # table route must still reproduce the exact summed covariance
    g = PhaseSpaceGrid(-8, 8, -8, 8, 257, 257)
    s2 = 1e-4  # sigma ~ 0.01 << dq ~ 0.06
    want = gauss2d(g, [0.0, 0.0], (0.5 + s2) * np.eye(2))
    got = smoothed(coherent(0.0), g, s2 * np.eye(2))
    assert np.max(np.abs(got - want)) < 1e-14


def test_convolve_gaussian_zero_cov_is_identity():
    g = PhaseSpaceGrid(-6, 6, -6, 6, 129, 129)
    state = random_qudit(3, seed=2)
    got = smoothed(state, g, np.zeros((2, 2)))
    assert np.array_equal(got, wigner_from_fock(state, g).values)


def test_convolve_gaussian_mass_preserved():
    g = PhaseSpaceGrid(-9, 9, -9, 9, 257, 257)
    got = smoothed(displaced_squeezed(0.5 + 0.5j, 0.17), g, np.diag([0.3, 0.3]))
    assert integrate(got, g) == pytest.approx(1.0, abs=1e-9)


def padded_convolve_gaussian(values, grid, cov):
    """The spectral Gaussian convolution at 2n - 1 points per axis, with
    the kernel built as one 2-D array: the library's route before the
    Hermite-Gauss tables, kept as the oracle."""
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
    np.diag([0.2, 0.3]),
    np.diag([1e-3, 5e-4]),
]


@pytest.mark.parametrize("cov", SMOOTHING_COVS + [np.zeros((2, 2))])
def test_convolve_gaussian_matches_padded_oracle(cov):
    # unequal point counts and extents, and an off-centre, tilted,
    # sign-changing field: no symmetry hides an axis mistake
    g = PhaseSpaceGrid(-8, 8, -7, 7, 257, 193)
    state = random_qudit(4, seed=9)
    f = wigner_from_fock(state, g).values
    got = smoothed(state, g, cov)
    assert np.max(np.abs(got - padded_convolve_gaussian(f, g, cov))) < 1e-14

"""Ball-side kernel machinery: closed-form oracles at n = 3, a 30-digit
quadrature oracle for G at n = 3..8, weight asymptotics, the scaling group,
and quadrature cross-checks against an adaptive oracle."""

import math

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.interpolate import CubicSpline

from hardyball.grids import (RadialFunction, RadialGrid,
                             log_derivative_matrix_apply)
from hardyball.kernel import (DomainError, green_density, green_G,
                              green_G_inverse, hyperbolic_dirichlet_energy,
                              hyperbolic_integral, hyperbolic_scaling,
                              sphere_area, weight_V_p)


def closed_form_G3(r):
    # antiderivative of (1 - t^2)/t^2 evaluated between r and 1
    return (1.0 - r) ** 2 / r


def test_density_closed_values():
    assert green_density(0.5, 3) == pytest.approx(3.0, rel=1e-15)
    assert green_density(0.5, 4) == pytest.approx(4.5, rel=1e-15)
    r = np.linspace(0.9, 0.999999, 50)
    vals = green_density(r, 5)
    assert np.all(np.diff(vals) < 0)


def test_density_domain_errors():
    with pytest.raises(DomainError):
        green_density(0.0, 5)
    with pytest.raises(DomainError):
        green_density(1.5, 5)
    with pytest.raises(DomainError):
        green_density(0.5, 2)


def test_G_matches_n3_closed_form():
    radii = np.geomspace(1e-4, 0.999, 20)
    for r in radii:
        assert green_G(float(r), 3) == pytest.approx(closed_form_G3(r),
                                                     rel=1e-10)
    # vectorized path agrees with the scalar path
    vec = green_G(radii, 3)
    assert np.max(np.abs(vec - closed_form_G3(radii))
                  / closed_form_G3(radii)) < 1e-9


def test_G_monotone_and_inverse_roundtrip():
    radii = np.geomspace(1e-4, 0.9, 30)
    G = green_G(radii, 5)
    assert np.all(np.diff(G) < 0)
    for r in (1e-4, 1e-2, 0.3, 0.9):
        g = green_G(r, 5)
        assert green_G_inverse(g, 5) == pytest.approx(r, rel=1e-12)
    back = green_G_inverse(G, 5)
    assert np.max(np.abs(back - radii) / radii) < 1e-12


def _G_oracle(r, n, mp):
    """G by mpmath quadrature of the density, independent of the binomial
    sum: in x = log t over [log r, 0] near the origin, and with
    t = 1 - (1 - r) u, u in [0, 1], near the boundary (1 - r is exact in
    binary there, and the scaled integrand is O(1))."""
    if r <= 0.5:
        x0 = mp.log(mp.mpf(float(r)))
        return mp.quad(lambda x: (-mp.expm1(2 * x)) ** (n - 2)
                       * mp.exp((2 - n) * x), [x0, x0 / 2, 0])
    d = mp.mpf(1.0 - float(r))
    return d ** (n - 1) * mp.quad(lambda u: (u * (2 - d * u)) ** (n - 2)
                                  / (1 - d * u) ** (n - 1), [0, 1])


@pytest.mark.parametrize("n", range(3, 9))
def test_G_matches_mpmath_oracle(n):
    mpmath = pytest.importorskip("mpmath")
    radii = np.array([1e-6, 1e-3, 0.1, 0.3, 0.6, 0.9, 0.999, 1.0 - 1e-6])
    with mpmath.workdps(30):
        exact = np.array([float(_G_oracle(r, n, mpmath)) for r in radii])
    assert np.max(np.abs(green_G(radii, n) / exact - 1.0)) <= 5e-14


@pytest.mark.parametrize("n", range(3, 9))
def test_G_scalar_and_vector_paths_agree(n):
    radii = np.concatenate([np.geomspace(1e-6, 1.0 - 1e-6, 200),
                            np.linspace(0.2, 0.55, 50)])
    vec = green_G(radii, n)
    scalar = np.array([green_G(float(r), n) for r in radii])
    assert np.max(np.abs(scalar / vec - 1.0)) <= 1e-15
    vec_w = weight_V_p(radii, n, 2.0)
    scalar_w = np.array([weight_V_p(float(r), n, 2.0) for r in radii])
    assert np.max(np.abs(scalar_w / vec_w - 1.0)) <= 4e-15


@pytest.mark.parametrize("n", range(3, 9))
def test_G_inverse_roundtrip_full_range(n):
    radii = np.concatenate([np.geomspace(1e-8, 0.99, 120),
                            1.0 - np.geomspace(1e-2, 1e-6, 30)])
    back = green_G_inverse(green_G(radii, n), n)
    assert np.max(np.abs(back / radii - 1.0)) <= 1e-12


def test_inverse_rejects_nonpositive():
    with pytest.raises(DomainError):
        green_G_inverse(0.0, 5)
    with pytest.raises(DomainError):
        green_G_inverse(-1.0, 5)


def test_weight_positive_and_origin_asymptotics():
    for n in (3, 5, 7):
        prev = math.inf
        for r in (1e-3, 1e-4, 1e-5):
            val = weight_V_p(r, n, 2.0) * 4.0 * r * r
            err = abs(val - 1.0)
            assert err < abs(prev) or err < 1e-6
            prev = err
            assert 0.999 <= val <= 1.001 or r == 1e-3
    # critical-weight asymptotics: V_q r^s tends to a positive constant
    q = 2.0 * (5 - 1.0) / 3.0
    vals = [weight_V_p(r, 5, q) * r ** 1.0 for r in (1e-3, 1e-4, 1e-5)]
    assert all(v > 0 for v in vals)
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])


def test_weight_closed_value_n3():
    # independent arithmetic from the two closed forms at n = 3
    f = green_density(0.5, 3)
    G = closed_form_G3(0.5)
    expect = f * f * 0.75 ** 2 / (4.0 * G ** 2)
    assert weight_V_p(0.5, 3, 2.0) == pytest.approx(expect, rel=1e-9)
    assert expect == pytest.approx(5.0625, rel=1e-12)


def test_sphere_area_values():
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert sphere_area(4) == pytest.approx(2.0 * math.pi ** 2, rel=1e-14)


def _bump(grid, center, width, seed_amp=1.0):
    vals = seed_amp * np.exp(-((grid.log_nodes - math.log(center)) / width) ** 2)
    vals[vals < 1e-14 * seed_amp] = 0.0
    return RadialFunction(grid, vals)


@pytest.fixture(scope="module")
def dense_grid():
    return RadialGrid.geometric(1e-8, 1.0 - 1e-6, 1500)


@pytest.mark.parametrize("lam", [0.5, 2.0, 5.0])
def test_scaling_invariance_gradient_and_weight(dense_grid, lam):
    n, s = 5, 1.0
    q = 2.0 * (n - s) / (n - 2.0)
    u = _bump(dense_grid, 0.02, 0.5)
    ul = hyperbolic_scaling(u, lam, n)
    e0 = hyperbolic_dirichlet_energy(u, n)
    e1 = hyperbolic_dirichlet_energy(ul, n)
    assert abs(e1 - e0) / e0 < 1e-6
    for p in (2.0, q):
        w = lambda r: weight_V_p(r, n, p)
        i0 = hyperbolic_integral(w, u, p, n)
        i1 = hyperbolic_integral(w, ul, p, n)
        assert abs(i1 - i0) / i0 < 1e-6


def test_scaling_identity_at_lambda_one(dense_grid):
    u = _bump(dense_grid, 0.05, 0.4)
    same = hyperbolic_scaling(u, 1.0, 5)
    assert np.array_equal(same.values, u.values)


def test_gradient_invariance_fails_off_exponent_two(dense_grid):
    # the gradient integral is scale-invariant only at exponent 2: the
    # q = 8/3 gradient integral must move under scaling
    u = _bump(dense_grid, 0.02, 0.5)
    ul = hyperbolic_scaling(u, 2.0, 5)
    q = 8.0 / 3.0
    e0 = hyperbolic_dirichlet_energy(u, 5, q=q)
    e1 = hyperbolic_dirichlet_energy(ul, 5, q=q)
    assert abs(e1 - e0) / e0 > 1e-3


def test_hyperbolic_integral_trivial_and_oracle():
    grid = RadialGrid.geometric(1e-6, 0.5, 400)
    zero = RadialFunction(grid, np.zeros(len(grid)))
    assert hyperbolic_integral(None, zero, 2.0, 5) == 0.0
    # small-ball volume: conformal factor tends to 2 at the origin
    rho = 1e-3
    small = RadialGrid.geometric(1e-9, rho, 400)
    one = RadialFunction(small, np.ones(len(small)))
    vol = hyperbolic_integral(None, one, 1.0, 3)
    euclid = 4.0 / 3.0 * math.pi * rho ** 3
    assert vol == pytest.approx(euclid * 2.0 ** 3, rel=1e-4)


def test_hyperbolic_integral_matches_dense_trapezoid():
    n = 5
    grid = RadialGrid.geometric(1e-5, 0.6, 300)
    u = RadialFunction(grid, grid.nodes ** -1.0 *
                       np.exp(-((grid.log_nodes + 4.0) / 1.0) ** 2))
    val = hyperbolic_integral(lambda r: weight_V_p(r, n, 2.0), u, 2.0, n)
    # brute-force oracle at 10x resolution
    t = np.linspace(grid.log_nodes[0], grid.log_nodes[-1], 3000)
    r = np.exp(t)
    w = weight_V_p(r, n, 2.0)
    conf = 2.0 / (1.0 - r * r)
    integ = w * np.abs(u.spline()(t)) ** 2 * r ** n * conf ** n
    oracle = sphere_area(n) * simpson(integ, x=t)
    assert val == pytest.approx(oracle, rel=1e-6)


def test_dirichlet_energy_constant_and_linear():
    grid = RadialGrid.geometric(1e-6, 0.5, 2000)
    const = RadialFunction(grid, np.ones(len(grid)))
    assert abs(hyperbolic_dirichlet_energy(const, 5)) < 1e-12
    t = np.linspace(grid.log_nodes[0], grid.log_nodes[-1], 5000)
    r = np.exp(t)
    gradB = 0.5 * (1.0 - r * r)  # |u'| = 1
    conf = 2.0 / (1.0 - r * r)
    oracle = sphere_area(3) * simpson(gradB ** 2 * r ** 3 * conf ** 3, x=t)
    got = hyperbolic_dirichlet_energy(
        RadialFunction(grid, grid.nodes.copy()), 3)
    assert got == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("q", [2.0, 8.0 / 3.0], ids=["q2", "q8_3"])
@pytest.mark.parametrize("center,width", [(0.02, 1.5), (math.exp(-2.0), 1.0)],
                         ids=["wide", "outer"])
def test_panel_rule_matches_adaptive_oracle(q, center, width):
    # independent oracle: scipy quad, knot interval by knot interval, on the
    # same splines (u, and du/dt by the 4th-order differences) times the
    # exact weight.  The grid reaches r = 0.9 where u has not decayed, and
    # du/dt changes sign at the peak, so both the cuts near r = 1 and, for
    # q = 8/3, the cuts at the roots are exercised.
    n = 5
    grid = RadialGrid.geometric(1e-6, 0.9, 200)
    u = _bump(grid, center, width)
    t = grid.log_nodes
    spline = CubicSpline(t, u.values)
    dspline = CubicSpline(t, log_derivative_matrix_apply(t, u.values))

    def volume(x):
        r = math.exp(x)
        return r ** n * (2.0 / (1.0 - r * r)) ** n

    def mass(x):
        return (weight_V_p(math.exp(x), n, q) * abs(float(spline(x))) ** q
                * volume(x))

    def energy(x):
        r = math.exp(x)
        return (0.5 * (1.0 - r * r) / r * abs(float(dspline(x)))) ** q \
            * volume(x)

    def oracle(f):
        return sphere_area(n) * math.fsum(
            quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            for a, b in zip(t[:-1], t[1:]))

    got = hyperbolic_integral(lambda r: weight_V_p(r, n, q), u, q, n)
    assert got == pytest.approx(oracle(mass), rel=1e-12, abs=0.0)
    got = hyperbolic_dirichlet_energy(u, n, q=q)
    assert got == pytest.approx(oracle(energy), rel=1e-12, abs=0.0)


def test_panel_rule_rejects_a_non_finite_sum():
    grid = RadialGrid.geometric(1e-6, 0.5, 100)
    u = RadialFunction(grid, np.full(len(grid), 1e200))
    with np.errstate(over="ignore"):
        with pytest.raises(DomainError):
            hyperbolic_integral(None, u, 2.0, 5)
        with pytest.raises(DomainError):
            hyperbolic_dirichlet_energy(
                RadialFunction(grid, 1e200 * grid.log_nodes), 5)

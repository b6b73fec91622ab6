"""Grid construction, differentiation order, and sampled-function safety."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline as ScipySpline

from hardyball.grids import (CubicSpline, ExtrapolationError, GridError,
                             RadialFunction, RadialGrid,
                             log_derivative_matrix_apply, spline_integral)


def test_geometric_grid_endpoints_and_monotonicity():
    g = RadialGrid.geometric(1e-6, 0.5, 200)
    assert g.nodes[0] == 1e-6
    assert g.nodes[-1] == 0.5
    assert np.all(np.diff(g.nodes) > 0)
    assert len(g) == 200


@pytest.mark.parametrize("r0,R", [(0.0, 0.5), (0.5, 0.5), (0.1, 1.0)])
def test_geometric_grid_rejects_bad_bounds(r0, R):
    with pytest.raises(GridError):
        RadialGrid.geometric(r0, R, 50)


def test_grid_rejects_decreasing_nodes():
    with pytest.raises(GridError):
        RadialGrid(np.linspace(0.5, 0.1, 20), 0.1, 0.5)


def test_log_derivative_is_fourth_order():
    # differentiate sin on shrinking uniform grids; the error of the
    # 4th-order stencils must drop ~16x per halving
    errs = []
    for num in (101, 201, 401):
        t = np.linspace(0.0, 2.0, num)
        d = log_derivative_matrix_apply(t, np.sin(t))
        errs.append(np.max(np.abs(d - np.cos(t))))
    assert errs[0] / errs[1] > 12.0
    assert errs[1] / errs[2] > 12.0


def test_log_derivative_requires_uniform_grid():
    t = np.array([0.0, 0.1, 0.25, 0.5, 0.6, 0.7, 0.9, 1.0])
    with pytest.raises(GridError):
        log_derivative_matrix_apply(t, t)


def test_radial_function_derivative_chain_rule():
    g = RadialGrid.geometric(1e-3, 0.5, 400)
    u = RadialFunction(g, g.nodes ** 2)
    dv = u.derivative_values()
    assert np.max(np.abs(dv - 2.0 * g.nodes) / (2.0 * g.nodes)) < 1e-6


def test_radial_function_rejects_bad_values():
    g = RadialGrid.geometric(1e-3, 0.5, 50)
    with pytest.raises(GridError):
        RadialFunction(g, np.ones(49))
    with pytest.raises(GridError):
        RadialFunction(g, np.full(50, np.nan))


def test_call_outside_support_guarded():
    g = RadialGrid.geometric(1e-3, 0.5, 100)
    u = RadialFunction(g, np.ones(100))
    with pytest.raises(ExtrapolationError):
        u(np.array([1e-4]))
    # compactly supported samples extend by zero
    vals = np.exp(-((g.log_nodes - np.log(0.03)) / 0.3) ** 2)
    vals[vals < 1e-14] = 0.0
    bump = RadialFunction(g, vals)
    out = bump(np.array([1e-4, 0.9]), atol=1e-12)
    assert np.all(out == 0.0)


def test_node_count_counts_strict_sign_changes():
    g = RadialGrid.geometric(1e-3, 0.5, 50)
    vals = np.sin(np.linspace(0.0, 3.0 * np.pi, 50))
    assert RadialFunction(g, vals).node_count() == 2
    assert RadialFunction(g, np.ones(50)).node_count() == 0


def _knot_sets():
    """Knots in t = log r: the log-uniform shooting grid, the symmetric
    bubble grid, and radii a caller hands to blowup.rescale_profile
    (uniform in r, so their log spacing varies 50-fold)."""
    half = np.linspace(0.0, 6.0, 1001)
    return {
        "log-uniform": np.linspace(np.log(5e-6), np.log(0.5), 1200),
        "bubble": np.concatenate([-half[::-1][:-1], half]),
        "rescale radii": np.log(np.linspace(0.01, 0.5, 300)),
    }


@pytest.mark.parametrize("name", ["log-uniform", "bubble", "rescale radii"])
def test_spline_matches_scipy(name):
    t = _knot_sets()[name]
    y = np.sin(3.0 * t) * np.exp(-0.05 * t * t) + 0.1 * np.cos(17.0 * t)
    ours, ref = CubicSpline(t, y), ScipySpline(t, y)
    scale = np.max(np.abs(y))
    pts = np.concatenate([t, np.random.default_rng(5).uniform(
        t[0], t[-1], 5000)])
    assert np.max(np.abs(ours(pts) - ref(pts))) <= 1e-12 * scale
    assert np.max(np.abs(ours(pts, 1) - ref(pts, 1))) <= 1e-12 * scale
    exact = ref.integrate(t[0], t[-1])
    assert abs(spline_integral(t, y) - exact) <= 1e-13 * abs(exact)
    roots = ref.roots(extrapolate=False)
    roots = roots[np.isfinite(roots)]
    ours_roots = ours.roots()
    assert len(ours_roots) == len(roots) >= 4
    assert np.max(np.abs(ours_roots - roots)) <= 1e-12


def test_spline_reproduces_cubics_exactly():
    # not-a-knot end conditions reproduce a cubic, so its integral, values
    # and slope are exact up to rounding
    t = np.log(np.geomspace(1e-3, 0.5, 40))
    spline = CubicSpline(t, 2.0 * t ** 3 - t ** 2 + 0.5)
    a, b = t[0], t[-1]
    exact = 0.5 * (b ** 4 - a ** 4) - (b ** 3 - a ** 3) / 3.0 + 0.5 * (b - a)
    assert spline.integral() == pytest.approx(exact, rel=1e-13)
    mid = 0.5 * (t[:-1] + t[1:])
    assert np.allclose(spline(mid), 2.0 * mid ** 3 - mid ** 2 + 0.5,
                       rtol=0, atol=1e-12)
    assert np.allclose(spline(mid, 1), 6.0 * mid ** 2 - 2.0 * mid,
                       rtol=0, atol=1e-11)


def test_spline_roots_skip_the_ringing_of_clipped_samples():
    # a bump clipped to exact zeros rings through zero in its tails at
    # ~1e-14 of its peak; those are not roots worth cutting at
    g = RadialGrid.geometric(1e-6, 0.99, 1500)
    vals = np.exp(-((g.log_nodes - np.log(0.01)) / 0.3) ** 2)
    vals[vals < 1e-14] = 0.0
    assert len(ScipySpline(g.log_nodes, vals).roots(extrapolate=False)) > 50
    assert len(RadialFunction(g, vals).spline().roots()) == 0
    # a real sign change is kept
    t = g.log_nodes
    signed = CubicSpline(t, vals * (t - np.log(0.01)))
    assert np.max(np.abs(signed.roots() - np.log(0.01))) <= 1e-9


def test_spline_rejects_bad_knots():
    t = np.linspace(0.0, 1.0, 10)
    with pytest.raises(GridError):
        CubicSpline(t[:3], t[:3])
    with pytest.raises(GridError):
        CubicSpline(t[::-1], t)
    with pytest.raises(GridError):
        CubicSpline(t, np.full(10, np.nan))

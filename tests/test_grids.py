"""Sample checks, differentiation order, the spline, and sampled-function
safety."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline as ScipySpline

from hardyball import grids
from hardyball.grids import (CubicSpline, ExtrapolationError, GridError,
                             ProfileData, log_derivative_matrix_apply,
                             spline_integral)


def test_profile_data_rejects_bad_radii():
    ones = np.ones(50)
    with pytest.raises(GridError):
        ProfileData(np.linspace(0.0, 0.5, 50), ones)     # r = 0
    with pytest.raises(GridError):
        ProfileData(np.full(50, 0.5), ones)              # repeated radii
    with pytest.raises(GridError):
        ProfileData(np.geomspace(1e-3, 0.5, 3), ones[:3])   # too few
    # no r < 1 bound: bubbles and rescaled profiles live beyond the ball
    assert ProfileData(np.geomspace(0.1, 1e3, 50), ones).r[-1] == 1e3


@pytest.mark.parametrize("r0,R", [(0.0, 0.5), (0.5, 0.5)])
def test_geometric_grid_rejects_bad_bounds(r0, R):
    # geometric radii from r0 to R: a grid that starts at r = 0 or
    # collapses to a single radius is refused
    r = np.geomspace(max(r0, 1e-3), R, 50)
    r[0] = r0
    with pytest.raises(GridError):
        ProfileData(r, np.ones(50))


def test_grid_rejects_decreasing_nodes():
    with pytest.raises(GridError):
        ProfileData(np.linspace(0.5, 0.1, 20), np.ones(20))


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


def test_radial_function_rejects_bad_values():
    r = np.geomspace(1e-3, 0.5, 50)
    with pytest.raises(GridError):
        ProfileData(r, np.ones(49))
    with pytest.raises(GridError):
        ProfileData(r, np.full(50, np.nan))
    with pytest.raises(GridError):
        ProfileData(r, np.ones(50), np.full(50, np.inf))


def test_call_outside_support_guarded():
    r = np.geomspace(1e-3, 0.5, 100)
    u = ProfileData(r, np.ones(100))
    with pytest.raises(ExtrapolationError):
        u(np.array([1e-4]))
    # compactly supported samples extend by zero
    vals = np.exp(-((np.log(r) - np.log(0.03)) / 0.3) ** 2)
    vals[vals < 1e-14] = 0.0
    bump = ProfileData(r, vals)
    out = bump(np.array([1e-4, 0.9]), atol=1e-12)
    assert np.all(out == 0.0)


def test_node_count_counts_strict_sign_changes():
    r = np.geomspace(1e-3, 0.5, 50)
    vals = np.sin(np.linspace(0.0, 3.0 * np.pi, 50))
    assert ProfileData(r, vals).node_count() == 2
    assert ProfileData(r, np.ones(50)).node_count() == 0


def _knot_sets():
    """Knots in t = log r: the log-uniform shooting grid, the symmetric
    bubble grid, and radii uniform in r, as a caller may hand to a profile
    (their log spacing varies 50-fold)."""
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


@pytest.mark.parametrize("num", [96, 600, 3000])
def test_spline_integral_on_log_uniform_knots_is_the_splines(num):
    # the trapezoid sum with the spline's end weights, on the shooting grid
    t = np.linspace(np.log(5e-6), np.log(0.5), num)
    r = np.exp(t)
    for y in (np.sin(3.0 * t) * np.exp(-0.05 * t * t) + 0.1 * np.cos(17.0 * t),
              r ** 3 / (1.0 + r / 0.01) ** 4, np.cos(t) / r ** 1.5):
        exact = CubicSpline(t, y).integral()
        assert abs(spline_integral(t, y) - exact) <= 1e-14 * abs(exact)


def test_end_weights_are_the_splines_on_unit_knots():
    # each weight is the integral of the spline through a unit vector
    unit = np.eye(96)
    assert np.array_equal(grids._END_WEIGHTS, [
        CubicSpline(np.arange(96.0), unit[k]).integral() for k in range(32)])


def test_spline_integral_of_a_cubic_is_exact():
    t = np.linspace(np.log(1e-3), np.log(0.5), 400)
    a, b = t[0], t[-1]
    exact = 0.5 * (b ** 4 - a ** 4) - (b ** 3 - a ** 3) / 3.0 + 0.5 * (b - a)
    assert spline_integral(t, 2.0 * t ** 3 - t ** 2 + 0.5) == \
        pytest.approx(exact, rel=1e-14)


def test_spline_integral_builds_the_spline_off_long_uniform_grids(
        monkeypatch):
    built = []

    class Counted(CubicSpline):
        def __init__(self, x, y):
            built.append(len(x))
            super().__init__(x, y)

    monkeypatch.setattr(grids, "CubicSpline", Counted)
    uniform = np.linspace(np.log(1e-5), np.log(0.5), 600)
    bent = uniform.copy()
    bent[300] += 1e-9                   # 5e-8 of the spacing
    for t in (uniform[:95], bent, _knot_sets()["rescale radii"]):
        y = np.sin(3.0 * t)
        assert spline_integral(t, y) == CubicSpline(t, y).integral()
    assert built == [95, 600, 300]
    spline_integral(uniform, np.sin(3.0 * uniform))
    assert built == [95, 600, 300]
    # non-finite samples and repeated knots are refused as the spline
    # refuses them
    with pytest.raises(GridError):
        spline_integral(uniform, np.full(600, np.nan))
    with pytest.raises(GridError):
        spline_integral(np.zeros(600), np.ones(600))


def test_spline_roots_skip_the_ringing_of_clipped_samples():
    # a bump clipped to exact zeros rings through zero in its tails at
    # ~1e-14 of its peak; those are not roots worth cutting at
    r = np.geomspace(1e-6, 0.99, 1500)
    t = np.log(r)
    vals = np.exp(-((t - np.log(0.01)) / 0.3) ** 2)
    vals[vals < 1e-14] = 0.0
    assert len(ScipySpline(t, vals).roots(extrapolate=False)) > 50
    assert len(ProfileData(r, vals).spline().roots()) == 0
    # a real sign change is kept
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

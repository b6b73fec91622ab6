"""Conformal dictionary: factor values, induced potential and weight,
transport round-trips, coercivity, and residual equivalence."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh

from hardyball.bridge import (EuclideanProblem, LowDimConstants,
                              _quadratic_form_diagonals, b_origin, b_weight,
                              coercivity_lambda0, h_conformal,
                              h_gamma_lambda, phi, residual_equivalence_check,
                              to_euclidean, to_hyperbolic)
from hardyball.constants import ProblemParams, beta_pm
from hardyball.grids import ProfileData
from hardyball.kernel import DomainError


def test_phi_values():
    assert phi(0.0, 5) == pytest.approx(2.0 ** 1.5, rel=1e-15)
    assert phi(0.5, 5) == pytest.approx((8.0 / 3.0) ** 1.5, rel=1e-15)
    assert phi(0.0, 3) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    with pytest.raises(DomainError):
        phi(1.0, 5)


def test_h_branch_values():
    p = ProblemParams(n=5, s=1.0, gamma=-2.0, lam=10.0)
    assert h_gamma_lambda(0.3, p) == pytest.approx(1.0, rel=1e-14)
    p0 = ProblemParams(n=5, s=1.0, gamma=0.0, lam=0.0)
    assert h_gamma_lambda(0.3, p0) == pytest.approx(-15.0, rel=1e-14)
    p3 = ProblemParams(n=3, s=1.0, gamma=1.0)
    assert h_gamma_lambda(0.01, p3, LowDimConstants(c3=0.0)) == \
        pytest.approx(400.0, rel=1e-14)
    # n >= 5 branch is exactly constant in r
    r = np.geomspace(1e-6, 0.9, 50)
    vals = h_gamma_lambda(r, p)
    assert np.max(np.abs(vals - vals[0])) == 0.0


@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
def test_b_origin_closed_form(n, s):
    expect = (n - 2.0) ** ((2.0 - s) / (n - 2.0)) / 2.0 ** (2.0 - s)
    assert b_origin(n, s) == pytest.approx(expect, rel=1e-15)
    assert b_weight(1e-8, n, s) == pytest.approx(expect, rel=1e-6)


def test_b_positive_and_flat_at_origin():
    r = np.geomspace(1e-8, 0.5, 200)
    b = b_weight(r, 5, 1.0)
    assert np.all(b > 0.0)
    # the slope of b vanishes at the origin
    slope1 = (b_weight(2e-3, 5, 1.0) - b_weight(1e-3, 5, 1.0)) / 1e-3
    slope2 = (b_weight(2e-4, 5, 1.0) - b_weight(1e-4, 5, 1.0)) / 1e-4
    assert abs(slope2) < abs(slope1)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_b_float_path_matches_spline(n):
    # a Python-float radius evaluates the b table's pieces in plain floats;
    # it must give the spline's value (only numpy's log may differ by 1 ulp)
    R = 0.5
    prob = EuclideanProblem(ProblemParams(n=n, s=1.0, gamma=-2.0, lam=10.0),
                            domain_radius=R)
    prob.b(np.array([R]))
    rng = np.random.default_rng(n)
    r = np.concatenate([rng.uniform(1e-5 * R, R, 100_000),
                        np.exp(prob._b_spline.x), [R]])
    scalar = np.array([prob.b(float(x)) for x in r])
    assert all(type(prob.b(float(x))) is float for x in r[:3])
    assert np.max(np.abs(scalar / prob.b(r) - 1.0)) <= 1e-15


def test_b_same_bits_on_float_float64_and_array():
    # the plain-float path serves floats and np.float64, from the first
    # call on; the array path differs only where numpy's log does
    R = 0.5
    params = ProblemParams(n=5, s=1.0, gamma=-2.0, lam=10.0)
    r = np.geomspace(1e-9, R, 2001)
    first = EuclideanProblem(params, domain_radius=R).b(float(r[0]))
    prob = EuclideanProblem(params, domain_radius=R)
    table = prob.b(r)
    scalar = np.array([prob.b(x) for x in r.tolist()])
    assert all(type(prob.b(x)) is float for x in (r[0], float(r[0])))
    assert first == scalar[0]
    assert np.array_equal(scalar, [prob.b(x) for x in r])
    same_log = np.log(r) == np.array([math.log(x) for x in r.tolist()])
    assert np.count_nonzero(same_log) >= 1000
    assert np.array_equal(scalar[same_log], table[same_log])
    assert np.max(np.abs(scalar / table - 1.0)) <= 1e-15


def test_exact_potential_vs_truncated_h():
    # for n >= 5 the truncated branch equals the exact induced potential
    # only in the r -> 0 limit
    p = ProblemParams(n=5, s=1.0, gamma=-2.0, lam=10.0)
    exact_small = h_conformal(1e-6, 5, -2.0, 10.0)
    # h_conformal subtracts two ~2e12 pieces (gamma V_2 conf^2 and gamma/r^2);
    # one float ulp there is 2.4e-4, so rounding leaves an error of a few
    # ulps (1.2e-3 measured), above the O(r) exact difference
    assert exact_small == pytest.approx(h_gamma_lambda(1e-6, p), abs=2.5e-3)
    assert abs(h_conformal(0.45, 5, -2.0, 10.0)
               - h_gamma_lambda(0.45, p)) > 1.0


def test_transport_round_trip_and_values():
    r = np.geomspace(1e-5, 0.5, 300)
    u = ProfileData(r, np.exp(-((np.log(r) + 4.0) / 1.0) ** 2))
    v = to_euclidean(u, 5)
    back = to_hyperbolic(v, 5)
    assert np.max(np.abs(back.v - u.v)) <= 1e-14 * np.max(u.v)
    ones = ProfileData(r, np.ones(len(r)))
    assert to_euclidean(ones, 5).v[0] == pytest.approx(
        phi(r[0], 5), rel=1e-12)


def test_transport_maps_indicial_branches():
    # u ~ K G^{alpha_-} near 0 corresponds to v ~ K' r^{-beta_-}
    from hardyball.constants import alpha_minus
    from hardyball.kernel import green_G
    n, gamma = 5, -2.0
    bm, _ = beta_pm(n, gamma)
    am = alpha_minus(n, gamma)
    r = np.geomspace(1e-6, 1e-3, 200)
    u = ProfileData(r, green_G(r, n) ** am)
    v = to_euclidean(u, n)
    slope = np.polyfit(np.log(r), np.log(np.abs(v.v)), 1)[0]
    assert slope == pytest.approx(-bm, rel=2e-2)


def test_coercivity_pure_norm_is_one():
    params = ProblemParams(n=5, s=1.0, gamma=0.0, lam=0.0)
    prob = EuclideanProblem(params, domain_radius=0.5, h_spec=lambda r: 0.0 * np.asarray(r))
    assert coercivity_lambda0(prob, num=800) == pytest.approx(1.0, abs=1e-8)


def test_coercivity_perturbation_by_small_constant():
    # h = eps shifts Lambda_0 to about 1 - eps / lambda_1(ball)
    params = ProblemParams(n=5, s=1.0, gamma=0.0, lam=0.0)
    base = EuclideanProblem(params, domain_radius=0.5,
                            h_spec=lambda r: 0.0 * np.asarray(r))
    eps = 0.5
    pert = EuclideanProblem(params, domain_radius=0.5,
                            h_spec=lambda r: eps + 0.0 * np.asarray(r))
    # principal Dirichlet eigenvalue of the ball of radius 1/2 in 5d:
    # (j_{3/2,1} / R)^2 with j_{3/2,1} the first zero of J_{3/2}
    from scipy.optimize import brentq
    from scipy.special import jv
    j32 = brentq(lambda x: jv(1.5, x), 3.0, 6.0)
    lam1 = (j32 / 0.5) ** 2
    got = coercivity_lambda0(pert, num=1500)
    assert got == pytest.approx(1.0 - eps / lam1, abs=2e-4)


def test_coercivity_reference_and_monotonicity():
    vals = []
    for gamma in (-3.0, -2.0, -1.0):
        params = ProblemParams(n=5, s=1.0, gamma=gamma, lam=10.0)
        vals.append(coercivity_lambda0(EuclideanProblem(params), num=1200))
    assert vals[0] >= vals[1] >= vals[2]
    assert vals[1] > 0.0
    # grid stability of the reference value
    params = ProblemParams(n=5, s=1.0, gamma=-2.0, lam=10.0)
    a = coercivity_lambda0(EuclideanProblem(params), num=1200)
    b = coercivity_lambda0(EuclideanProblem(params), num=2400)
    assert a == pytest.approx(b, abs=1e-4)


def test_coercivity_matches_dense_eigensolver():
    params = ProblemParams(n=5, s=1.0, gamma=-2.0, lam=10.0)
    prob = EuclideanProblem(params)
    form, energy, off = _quadratic_form_diagonals(prob, 1e-6, 600)
    offd = np.diag(off, 1) + np.diag(off, -1)
    dense = eigh(np.diag(form) + offd, np.diag(energy) + offd,
                 eigvals_only=True)[0]
    assert coercivity_lambda0(prob, num=600) == pytest.approx(dense,
                                                              rel=1e-8)


def test_residual_equivalence_trivial_and_manufactured():
    params = ProblemParams(n=5, s=1.0, gamma=-2.0, lam=10.0)
    prob = EuclideanProblem(params)
    zero = ProfileData(np.geomspace(1e-4, 0.5, 800), np.zeros(800))
    rep = residual_equivalence_check(zero, prob)
    assert rep["max_difference"] == 0.0
    rels = []
    for num in (400, 800, 1600):
        r = np.geomspace(1e-4, 0.5, num)
        u = ProfileData(r, np.exp(-((np.log(r) + 3.0) / 1.2) ** 2))
        rels.append(residual_equivalence_check(u, prob)
                    ["relative_difference"])
    assert rels[0] / rels[1] >= 8.0
    assert rels[1] / rels[2] >= 8.0

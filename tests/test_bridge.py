"""Conformal dictionary: factor values, induced potential and weight,
transport round-trips, coercivity, and residual equivalence."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh

from hardyball.bridge import (EuclideanProblem, _count_eigs_below,
                              _quadratic_form_diagonals, b_origin, b_weight, coercivity_lambda0,
                              h_conformal, phi, residual_equivalence_check)
from hardyball.constants import AdmissibilityError, ProblemParams, beta_pm
from hardyball.grids import ProfileData
from hardyball.kernel import DomainError


def test_phi_values():
    assert phi(0.0, 5) == pytest.approx(2.0 ** 1.5, rel=1e-15)
    assert phi(0.5, 5) == pytest.approx((8.0 / 3.0) ** 1.5, rel=1e-15)
    assert phi(0.0, 3) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    with pytest.raises(DomainError):
        phi(1.0, 5)


def test_h_branch_values():
    # h(0) = 4(n-2)/(n-4) gamma + 4 lam - n(n-2), one float per problem
    p = ProblemParams(n=5, s=1.0, gamma=-2.0, lam=10.0)
    assert EuclideanProblem(p).h0 == pytest.approx(1.0, rel=1e-14)
    p0 = ProblemParams(n=5, s=1.0, gamma=0.0, lam=0.0)
    assert EuclideanProblem(p0).h0 == pytest.approx(-15.0, rel=1e-14)
    p6 = ProblemParams(n=6, s=1.0, gamma=-2.0, lam=12.0)
    assert EuclideanProblem(p6).h0 == pytest.approx(8.0, rel=1e-14)
    assert type(EuclideanProblem(p).h0) is float


@pytest.mark.parametrize("n", [3, 4])
def test_flat_problem_needs_n_at_least_5(n):
    # below n = 5, h is singular at the origin: the flat problem is refused
    params = ProblemParams(n=n, s=1.0, gamma=-1.0, lam=10.0)
    with pytest.raises(AdmissibilityError, match="n >= 5"):
        EuclideanProblem(params)


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
    # a Python-float radius gives a float, the spline's value at it
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
    # floats and np.float64 give floats, from the first call on, with the
    # bits of the array path
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
    h0 = EuclideanProblem(p).h0
    assert exact_small == pytest.approx(h0, abs=2.5e-3)
    assert abs(h_conformal(0.45, 5, -2.0, 10.0) - h0) > 1.0


def test_transport_round_trip_and_values():
    r = np.geomspace(1e-5, 0.5, 300)
    u = ProfileData(r, np.exp(-((np.log(r) + 4.0) / 1.0) ** 2))
    v = u.v * phi(r, 5)
    assert np.max(np.abs(v / phi(r, 5) - u.v)) <= 1e-14 * np.max(u.v)
    # phi tends to 2^{(n-2)/2} at the origin
    assert v[0] / u.v[0] == pytest.approx(2.0 ** 1.5, rel=1e-9)


def test_transport_maps_indicial_branches():
    # u ~ K G^{alpha_-} near 0 corresponds to v ~ K' r^{-beta_-}
    from hardyball.constants import alpha_minus
    from hardyball.kernel import green_G
    n, gamma = 5, -2.0
    bm, _ = beta_pm(n, gamma)
    am = alpha_minus(n, gamma)
    r = np.geomspace(1e-6, 1e-3, 200)
    u = ProfileData(r, green_G(r, n) ** am)
    v = u.v * phi(r, n)
    slope = np.polyfit(np.log(r), np.log(np.abs(v)), 1)[0]
    assert slope == pytest.approx(-bm, rel=2e-2)


def test_coercivity_pure_norm_is_one():
    # lam = 3.75 gives h0 = 0 at gamma = 0
    params = ProblemParams(n=5, s=1.0, gamma=0.0, lam=3.75)
    prob = EuclideanProblem(params, domain_radius=0.5)
    assert coercivity_lambda0(prob, num=800) == pytest.approx(1.0, abs=1e-8)


def test_coercivity_perturbation_by_small_constant():
    # h = eps shifts Lambda_0 to about 1 - eps / lambda_1(ball); at
    # gamma = 0, lam = 3.875 gives h0 = eps = 0.5
    eps = 0.5
    pert = EuclideanProblem(ProblemParams(n=5, s=1.0, gamma=0.0, lam=3.875),
                            domain_radius=0.5)
    assert pert.h0 == eps
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


def _count_eigs_below_numpy(lam, form, energy, off):
    # the LDL^T pivot loop on numpy scalars, as the count was first written
    d = form - lam * energy
    e = off - lam * off
    prev = d[0] if d[0] != 0.0 else -1e-300
    count = int(prev < 0.0)
    for k in range(1, len(d)):
        piv = d[k] - e[k - 1] ** 2 / prev
        if piv == 0.0:
            piv = -1e-300
        count += int(piv < 0.0)
        prev = piv
    return count


def test_float_sturm_count_matches_numpy_scalars():
    params = ProblemParams(n=5, s=1.0, gamma=-2.0, lam=10.0)
    form = _quadratic_form_diagonals(EuclideanProblem(params), 1e-6, 2000)
    lam0 = coercivity_lambda0(EuclideanProblem(params))
    grid = np.concatenate([np.linspace(-20.0, 400.0, 60),
                           lam0 + np.array([-1e-9, 0.0, 1e-9])])
    counts = [_count_eigs_below(lam, *form) for lam in grid]
    assert counts == [_count_eigs_below_numpy(lam, *form) for lam in grid]
    assert len(set(counts)) > 3


def test_coercivity_reference_value_is_kept():
    # the bisection's every count is the numpy-scalar count, so the
    # reference value keeps its bits
    params = ProblemParams(n=5, s=1.0, gamma=-2.0, lam=10.0)
    assert coercivity_lambda0(EuclideanProblem(params)) == 1.0000192593427299


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

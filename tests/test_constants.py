"""Closed-form exponents, regime predicates, and the best-constant
estimate, including algebraic property tests."""

import argparse
import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardyball import cli
from hardyball.constants import (AdmissibilityError, ProblemParams,
                                 admissibility, best_constant_estimate,
                                 beta_pm, critical_exponent, h_origin)


def _exponents(n, gamma, s=1.0):
    """The exponents block that the constants command prints."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert cli.cmd_constants({"params": {"n": n, "s": s, "gamma": gamma}},
                                 argparse.Namespace(out=None, seed=0)) == 0
    return json.loads(text.getvalue())["exponents"]


def test_critical_exponent_values():
    assert critical_exponent(5, 1.0) == pytest.approx(8.0 / 3.0, rel=1e-15)
    assert critical_exponent(5, 0.0) == pytest.approx(10.0 / 3.0, rel=1e-15)
    assert critical_exponent(3, 2.0) == pytest.approx(2.0, rel=1e-15)


def test_beta_values():
    assert beta_pm(6, 0.0) == pytest.approx((0.0, 4.0))
    bm, bp = beta_pm(5, -2.0)
    assert bm == pytest.approx(1.5 - math.sqrt(17.0) / 2.0, rel=1e-14)
    assert bp == pytest.approx(1.5 + math.sqrt(17.0) / 2.0, rel=1e-14)
    assert beta_pm(5, 1.25) == pytest.approx((0.5, 2.5))


def test_beta_rejects_supercritical_gamma():
    with pytest.raises(AdmissibilityError):
        beta_pm(6, 4.0)        # boundary equality is out
    with pytest.raises(AdmissibilityError):
        beta_pm(5, 5.0)


def test_alpha_minus_values():
    assert _exponents(5, 0.0)["alpha_minus"] == 0.0
    assert _exponents(5, -7.0 / 4.0)["alpha_minus"] == pytest.approx(
        -1.0 / 6.0, rel=1e-14)


@settings(deadline=None, max_examples=200)
@given(n=st.integers(min_value=3, max_value=12),
       gamma=st.floats(min_value=-50.0, max_value=24.9,
                       allow_nan=False, allow_infinity=False))
def test_beta_vieta_identities(n, gamma):
    cap = (n - 2.0) ** 2 / 4.0
    if gamma >= cap - 1e-9:
        return
    bm, bp = beta_pm(n, gamma)
    assert bm + bp == pytest.approx(n - 2.0, abs=1e-12)
    assert bm * bp == pytest.approx(gamma, abs=1e-10 * max(1.0, abs(gamma)))
    assert bm < (n - 2.0) / 2.0 < bp
    # the two indicial conventions that constants.json writes agree
    exps = _exponents(n, gamma)
    assert (exps["beta_minus"], exps["beta_plus"]) == (bm, bp)
    assert (n - 2.0) * exps["alpha_minus"] == pytest.approx(bm, abs=1e-10)


@settings(deadline=None, max_examples=100)
@given(gamma=st.floats(min_value=-20.0, max_value=2.0,
                       allow_nan=False, allow_infinity=False))
def test_power_solutions_solve_hardy_ode(gamma):
    # r^-beta solves -v'' - (n-1) v'/r - gamma v/r^2 = 0 exactly when beta
    # is a root of the indicial polynomial beta^2 - (n-2) beta + gamma
    for beta in beta_pm(5, gamma):
        assert (abs(beta * beta - 3.0 * beta + gamma)
                / max(1.0, abs(gamma) + beta * beta)) < 1e-10


def test_constants_tau_range():
    exps = _exponents(5, -2.0)
    lo, hi = exps["tau_range"]
    assert lo == pytest.approx(beta_pm(5, -2.0)[0])
    assert hi == pytest.approx(1.5)
    assert exps["two_star_s"] == critical_exponent(5, 1.0)


def test_admissibility_reference_flags():
    flags = admissibility(ProblemParams(n=5, s=1.0, gamma=-2.0, lam=10.0))
    assert flags == {"multiplicity_regime": True,
                     "lambda_threshold_met": True}
    # lambda threshold at n=5, gamma=-2 is 3 * (5/4 + 2) = 9.75, where
    # h(0) = -24 + 39 - 15 is exactly zero
    at = ProblemParams(n=5, s=1.0, gamma=-2.0, lam=9.75)
    assert h_origin(at) == 0.0
    assert not admissibility(at)["lambda_threshold_met"]


@pytest.mark.parametrize("n", [5, 6, 7, 9])
def test_lambda_flag_is_the_papers_inequality(n):
    # h(0) > 0 is lam > (n-2)/(n-4) (n(n-4)/4 - gamma)
    for gamma in np.linspace(-6.0, 2.0, 9):
        for lam in np.linspace(-5.0, 25.0, 13):
            params = ProblemParams(n=n, s=1.0, gamma=float(gamma),
                                   lam=float(lam))
            paper = lam > (n - 2.0) / (n - 4.0) * (n * (n - 4.0) / 4.0
                                                   - gamma)
            assert (h_origin(params) > 0.0) == paper
            assert admissibility(params)["lambda_threshold_met"] == paper


@pytest.mark.parametrize("n", [3, 4])
def test_no_constant_h_origin_below_dimension_5(n):
    params = ProblemParams(n=n, s=1.0, gamma=-0.5, lam=100.0)
    assert math.isnan(h_origin(params))
    assert not admissibility(params)["lambda_threshold_met"]


def test_admissibility_multiplicity_boundary():
    # multiplicity regime needs gamma < (n-2)^2/4 - 4 = -1.75
    near = admissibility(ProblemParams(n=5, s=1.0, gamma=-1.0, lam=10.0))
    assert not near["multiplicity_regime"]


def test_multiplicity_equivalent_to_indicial_gap():
    # gamma < cap - 4 is the same as beta_+ - beta_- > 4
    for gamma in np.linspace(-8.0, 2.0, 21):
        params = ProblemParams(n=5, s=1.0, gamma=float(gamma))
        pred = admissibility(params)["multiplicity_regime"]
        try:
            bm, bp = beta_pm(5, float(gamma))
            gap = bp - bm > 4.0
        except AdmissibilityError:
            gap = False
        assert pred == gap


def test_params_validation():
    with pytest.raises(AdmissibilityError):
        ProblemParams(n=2, s=1.0, gamma=0.0)
    with pytest.raises(AdmissibilityError):
        ProblemParams(n=5, s=2.5, gamma=0.0)
    with pytest.raises(AdmissibilityError):
        ProblemParams(n=5, s=1.0, gamma=0.0, p_defect=1.0)  # cap is 2/3
    with pytest.raises(AdmissibilityError, match="Hardy threshold"):
        ProblemParams(n=5, s=1.0, gamma=2.25)     # boundary equality is out


def test_best_constant_sobolev_limit():
    # s -> 0, gamma = 0: the quotient approaches the classical constant
    # S_n = n(n-2)/4 * (2 pi^{(n+1)/2} / Gamma((n+1)/2))^{2/n} for n = 5
    n = 5
    s_small = 1e-4
    est = best_constant_estimate(n, s_small, 0.0)
    vol_sn = 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)
    S = n * (n - 2.0) / 4.0 * vol_sn ** (2.0 / n)
    assert est["value"] == pytest.approx(S, rel=0.02)


def test_best_constant_monotone_in_gamma():
    vals = [best_constant_estimate(5, 1.0, g)["value"]
            for g in (-4.0, -2.0, 0.0)]
    assert vals[0] >= vals[1] >= vals[2] > 0.0


def test_best_constant_stable_under_reference():
    est = best_constant_estimate(5, 1.0, 0.0)
    assert est["value"] > 0.0 and math.isfinite(est["value"])


def _trial_quotient_mp(mpmath, n, s, gamma, alpha):
    """Quotient of w = r^{-(n-2)/2} sech(alpha log r)^{2/(q-2)} by
    tanh-sinh quadrature of its even integrands in t = log r."""
    s, gamma = mpmath.mpf(s), mpmath.mpf(gamma)
    q = 2 * (n - s) / (n - 2)
    m = 2 / (q - 2)
    a = mpmath.mpf(n - 2) ** 2 / 4 - gamma

    def line(f):
        return 2 * mpmath.quad(f, [0, mpmath.inf])

    grad = line(lambda t: (m * alpha * mpmath.tanh(alpha * t)
                           * mpmath.sech(alpha * t) ** m) ** 2)
    mass = line(lambda t: mpmath.sech(alpha * t) ** (2 * m))
    crit = line(lambda t: mpmath.sech(alpha * t) ** (m * q))
    omega = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(
        mpmath.mpf(n) / 2)
    return omega * (grad + a * mass) / (omega * crit) ** (2 / q)


@pytest.mark.parametrize("n,s,gamma", [(5, 1.0, -2.0), (5, 1.0, 0.0),
                                       (6, 0.5, 1.0), (7, 1.5, -4.0),
                                       (3, 0.25, 0.1)])
def test_best_constant_closed_form_matches_quadrature(n, s, gamma):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        q = 2 * (n - mpmath.mpf(s)) / (n - 2)
        alpha = mpmath.sqrt(mpmath.mpf(n - 2) ** 2 / 4
                            - mpmath.mpf(gamma)) * (q - 2) / 2
        value = _trial_quotient_mp(mpmath, n, s, gamma, alpha)
        est = best_constant_estimate(n, s, gamma)
        assert abs(est["value"] - value) <= 1e-12 * value
        assert abs(est["alpha"] - alpha) <= 1e-14 * alpha


def test_best_constant_alpha_minimises_the_family():
    mpmath = pytest.importorskip("mpmath")
    est = best_constant_estimate(5, 1.0, -2.0)
    with mpmath.workdps(20):
        for factor in (0.99, 1.01):
            assert _trial_quotient_mp(mpmath, 5, 1.0, -2.0,
                                      est["alpha"] * factor) > est["value"]

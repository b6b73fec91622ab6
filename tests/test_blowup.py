"""Concentration diagnostics on constructed fixtures: scale detection,
envelopes, the rate formula, and the verdict logic."""

import numpy as np
import pytest

from hardyball.blowup import (BLOWUP, COMPACT, INCONCLUSIVE, FamilyError,
                              calibrated_bubble, compactness_verdict,
                              detect_scales, envelope_check, plant_bubbles,
                              rate_check, rate_formula)
from hardyball.bridge import b_origin
from hardyball.constants import (ProblemParams, beta_pm, critical_exponent,
                                 h_origin)
from hardyball.grids import spline_integral
from hardyball.kernel import sphere_area
from hardyball.profiles import EntireBubble
from hardyball.solver import (ProfileData, SolutionProfile,
                              continuation_to_critical)

from conftest import warm


@pytest.fixture(scope="module")
def params():
    return ProblemParams(n=5, s=1.0, gamma=-2.0, lam=10.0)


def _calibrated(bubble):
    """The calibrated bubble at the bubble's own samples, rescaled."""
    lam = bubble.psi_peak ** (2.0 / (bubble.n - 2.0))
    return calibrated_bubble(bubble, bubble.data.r * lam)


def _rate_by_quadrature(params, p, mus, decades):
    """rate_formula's limit of p / mu_N^2, with the square mass and the
    critical singular mass of the calibrated bubble taken by spline
    quadrature in log r over its samples on the given decades."""
    n, s = params.n, params.s
    q = critical_exponent(n, s)
    b0 = b_origin(n, s)
    cal = _calibrated(EntireBubble(n, s, params.gamma, b0, decades))
    t_log = np.log(cal.r)
    sq_mass = sphere_area(n) * spline_integral(t_log, cal.v ** 2 * cal.r ** n)
    crit_mass = sphere_area(n) * spline_integral(
        t_log, np.abs(cal.v) ** q * cal.r ** (n - s))
    t = np.clip(np.asarray(mus) ** abs(p), 1e-300, 1.0)
    den = sum(b0 / ti ** ((n - 2.0) / (q - 2.0)) * crit_mass for ti in t)
    return (-h_origin(params) / t[-1] ** (n / (q - 2.0))
            * 4.0 * (n - s) / (n - 2.0) ** 2 * sq_mass / den)


def test_family_invariants(params):
    # a family is its defect and its increasing positive scales
    for mus in ([1e-2, 1e-4], [], [-1e-3, 1e-2], [1e-3, 1e-3]):
        with pytest.raises(FamilyError):
            rate_formula(params, 0.1, mus)
    # t_i = mu_i^|p|, clipped to [1e-300, 1]: the sign of p does not
    # matter, and a scale above one reads t = 1, as at p = 0
    assert rate_formula(params, -0.1, [1e-3, 1e-2]) == \
        rate_formula(params, 0.1, [1e-3, 1e-2])
    assert rate_formula(params, 0.1, [2.0]) == rate_formula(params, 0.0, [2.0])


def test_detect_single_scale(params, bubble):
    radii = np.geomspace(1e-7, 0.5, 4000)
    mu = 1e-3
    prof = plant_bubbles(bubble, [mu], params, radii)
    found = detect_scales(prof)
    assert len(found) == 1
    assert found[0][0] == pytest.approx(mu, rel=0.05)


def test_detect_two_separated_scales(params, bubble):
    radii = np.geomspace(1e-7, 0.5, 6000)
    prof = plant_bubbles(bubble, [1e-4, 1e-2], params, radii)
    found = detect_scales(prof)
    assert len(found) == 2
    assert found[0][0] == pytest.approx(1e-4, rel=0.10)
    assert found[1][0] == pytest.approx(1e-2, rel=0.10)


def test_detect_nothing_on_compact_profile(continuation):
    last = continuation[-1]
    assert detect_scales(last) == []


def test_envelope_on_single_bubble(params, bubble):
    radii = np.geomspace(1e-7, 0.5, 4000)
    mu = 1e-3
    prof = plant_bubbles(bubble, [mu], params, radii)
    worst, annuli = envelope_check(prof, [mu])
    bm, bp = beta_pm(5, -2.0)
    cal = _calibrated(bubble)
    own = np.max(np.abs(cal.v) * (cal.r ** bm + cal.r ** bp))
    assert 0.5 * own <= worst <= 2.0 * own
    assert annuli


def test_envelope_zero_profile(params):
    r = np.geomspace(1e-5, 0.5, 500)
    prof = SolutionProfile(
        data=ProfileData(r=r, v=np.zeros_like(r), dv=np.zeros_like(r)),
        params=params, K0=0.0, energy=0.0, residual_norm=0.0)
    assert envelope_check(prof, [1e-3])[0] == 0.0


def test_envelope_bounded_along_continuation(continuation):
    # the constant stabilizes only once the defect is small
    consts = []
    for prof in continuation[-3:]:
        consts.append(envelope_check(prof, [1e-3])[0])
    assert max(consts) < 2.0 * min(consts)


def test_rate_formula_sign_and_synthetic_recovery(params):
    A = -0.37  # synthetic rate constant
    mus = [1e-2, 1e-3, 1e-4]
    # a blow-up family carries nonnegative defects only when A < 0 flips
    # sign; here feed signed defects and test pure recovery of the constant
    seq = [(A * mu ** 2, [mu]) for mu in mus]
    rep = rate_check(seq, params)
    assert rep["applicable"]
    assert rep["measured_limit"] == pytest.approx(A, rel=0.02)
    formula = rate_formula(params, *seq[-1])
    assert formula < 0.0      # h(0) > 0 forces the negative sign
    assert rep["sign_contradiction"] is False  # defects here are signed
    # with nonnegative defects the contradiction flag must fire
    seq_pos = [(abs(p), scales) for p, scales in seq]
    rep2 = rate_check(seq_pos, params)
    assert rep2["sign_contradiction"] is True


def test_rate_formula_uses_only_last_scale_in_numerator(params):
    # every scale adds mu_i^{-|p|(n-2)/(q-2)} to the denominator, and only
    # the last one enters the numerator, through t_N^{-n/(q-2)}
    p, mu_in, mu = 0.1, 1e-4, 1e-2
    e = (5.0 - 2.0) / (critical_exponent(5, 1.0) - 2.0)
    one = rate_formula(params, p, [mu])
    two = rate_formula(params, p, [mu_in, mu])
    assert two == pytest.approx(one / (1.0 + (mu_in / mu) ** (-p * e)),
                                rel=1e-13)
    # at p = 0 all t_i are 1, and each bubble counts once
    assert rate_formula(params, 0.0, [mu_in, mu]) == pytest.approx(
        rate_formula(params, 0.0, [mu]) / 2.0, rel=1e-14)


def test_rate_formula_is_proportional_to_h_origin(params):
    # h(0) = 4 lam - 39 at n = 5, gamma = -2: 1 at lam = 10, 2 at 10.25,
    # 0 at the threshold 9.75 and -3 at 9
    base = rate_formula(params, 0.0, [1e-3])
    for lam, h0 in ((10.25, 2.0), (9.75, 0.0), (9.0, -3.0)):
        other = ProblemParams(n=5, s=1.0, gamma=-2.0, lam=lam)
        assert rate_formula(other, 0.0, [1e-3]) == pytest.approx(
            h0 * base, rel=1e-14, abs=0.0)
        # nonnegative defects contradict the formula only when h(0) > 0
        seq = [(mu ** 2, [mu]) for mu in (1e-2, 1e-3)]
        assert rate_check(seq, other)["sign_contradiction"] is (h0 > 0.0)


@pytest.mark.parametrize("n, s, gamma, decades, rtol", [
    (5, 1.0, -2.0, 16.0, 1e-12), (6, 1.0, -3.0, 16.0, 1e-12),
    (7, 1.5, -2.0, 16.0, 1e-12),
    # at s = 1.9, m = 30 and the square mass's integrand
    # e^{2t} sech(alpha t)^{2m} peaks at t = m/a = 7.6, 3.3 decades out:
    # 8 sampled decades miss 37 % of it, 24 decades 1.6e-11 of the rate
    (5, 1.9, -1.7086, 24.0, 1e-9)])
def test_rate_formula_matches_quadrature_of_the_bubble(n, s, gamma, decades,
                                                       rtol):
    # the closed-form masses against spline quadrature of the closed-form
    # bubble over the given decades
    params = ProblemParams(n=n, s=s, gamma=gamma, lam=10.0)
    for p, mus in ((0.0, [1e-3]), (0.05, [1e-4, 1e-2])):
        assert rate_formula(params, p, mus) == pytest.approx(
            _rate_by_quadrature(params, p, mus, decades), rel=rtol)


def test_rate_formula_refuses_a_bubble_outside_l2():
    # a = (n-2)^2/4 - gamma = 0.75 <= 1: U is not square integrable, and
    # the square mass is infinite
    params = ProblemParams(n=5, s=1.0, gamma=1.5, lam=10.0)
    with pytest.raises(FamilyError, match="square integrable"):
        rate_formula(params, 0.0, [1e-3])


def test_rate_check_empty_inputs(params):
    rep = rate_check([], params)
    assert rep["applicable"] is False


def test_verdict_compact_on_continuation(continuation_steps, params):
    rep = compactness_verdict(continuation_steps, params)
    assert rep["verdict"] == COMPACT
    assert rep["theory_compact"] is True
    assert rep["consistent_with_theory"] is True


def test_verdict_does_not_depend_on_the_schedule(continuation_steps,
                                                 ref_problem, params):
    # the reference family on the halving schedule 0.4 -> 0 and on the
    # uniform one 0.06, 0.05, ..., 0: the increments fall by about half per
    # step on the first and by 4 % on the second, while the increment per
    # unit decrease of p stays between 4.9 and 6.7 on both
    uniform, _ = continuation_to_critical(
        ref_problem, (0.06, 0.05, 0.04, 0.03, 0.02, 0.01, 0.0),
        warm(ref_problem))
    steps = [{"p_defect": prof.params.p_defect, **prof.meta}
             for prof in uniform]
    for run in (continuation_steps, steps):
        rep = compactness_verdict(run, params)
        assert rep["verdict"] == COMPACT
        assert all(4.9 <= rate <= 6.7
                   for rate in rep["increments_per_unit_p"])


def test_verdict_rejects_increments_that_do_not_shrink_with_dp(params):
    # constant increments over a schedule that halves dp: the increment per
    # unit dp doubles at every step, which no Lipschitz family shows, and
    # which a family that concentrates as p -> 0 does
    ps = [0.8 * 0.5 ** i for i in range(7)]
    steps = [{"p_defect": p, "sup_increment": 0.06} for p in ps]
    rep = compactness_verdict(steps, params)
    assert rep["verdict"] == BLOWUP
    assert rep["increments_per_unit_p"][-1] == pytest.approx(
        32.0 * rep["increments_per_unit_p"][0])
    # the same increments on a uniform schedule are bounded per unit dp
    uniform = [dict(step, p_defect=0.06 - 0.01 * i)
               for i, step in enumerate(steps)]
    assert compactness_verdict(uniform, params)["verdict"] == COMPACT
    # one increment cannot show a bound
    assert compactness_verdict(steps[:2], params)["verdict"] == INCONCLUSIVE


def test_verdict_blowup_on_diverging_increments(params):
    # synthetic run whose increments per unit p grow without bound
    steps = [{"p_defect": 0.4 / (i + 1.0), "sup_increment": inc}
             for i, inc in enumerate((1.0, 6.0, 60.0, 700.0))]
    rep = compactness_verdict(steps, params)
    assert rep["verdict"] == BLOWUP
    assert rep["increments_per_unit_p"][-1] == pytest.approx(
        700.0 * rep["increments_per_unit_p"][0])
    assert rep["consistent_with_theory"] is False
    # the flags are sufficient for compactness, not necessary: below the
    # lambda threshold a blow-up verdict contradicts nothing
    low = ProblemParams(n=5, s=1.0, gamma=-2.0, lam=9.0)
    rep = compactness_verdict(steps, low)
    assert rep["theory_compact"] is False
    assert rep["consistent_with_theory"] is True

"""Concentration diagnostics on constructed fixtures: scale detection,
envelopes, the rate formula, and the verdict logic."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hardyball.blowup import (BLOWUP, COMPACT, INCONCLUSIVE, BubbleFamily,
                              FamilyError, bubble_weighted_integrals,
                              calibrated_bubble, compactness_verdict,
                              detect_scales, envelope_check, plant_bubbles,
                              rate_check, rate_formula, scale_count_bound)
from hardyball.constants import ProblemParams, beta_pm
from hardyball.solver import (ContinuationSchedule, ProfileData,
                              SolutionProfile, continuation_to_critical)

from conftest import warm


@pytest.fixture(scope="module")
def params():
    return ProblemParams(n=5, s=1.0, gamma=-2.0, lam=10.0)


def test_family_invariants(params):
    fam = BubbleFamily([1e-4, 1e-2], replace(params, p_defect=0.1))
    assert len(fam) == 2
    assert np.all((fam.t_limits > 0.0) & (fam.t_limits <= 1.0))
    with pytest.raises(FamilyError):
        BubbleFamily(mu=[1e-2, 1e-4], params=params)


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
    fam = BubbleFamily([mu], params)
    rep = envelope_check(prof, fam)
    bm, bp = beta_pm(5, -2.0)
    cal = calibrated_bubble(bubble)
    own = np.max(np.abs(cal.v) * (cal.r ** bm + cal.r ** bp))
    assert 0.5 * own <= rep.worst_ratio <= 2.0 * own
    assert rep.annuli


def test_envelope_zero_profile(params):
    r = np.geomspace(1e-5, 0.5, 500)
    prof = SolutionProfile(
        data=ProfileData(r=r, v=np.zeros_like(r), dv=np.zeros_like(r)),
        params=params, K0=0.0, energy=0.0, residual_norm=0.0)
    fam = BubbleFamily([1e-3], params)
    rep = envelope_check(prof, fam)
    assert rep.worst_ratio == 0.0


def test_envelope_bounded_along_continuation(continuation):
    # the constant stabilizes only once the defect is small
    consts = []
    for prof in continuation[-3:]:
        fam = BubbleFamily([1e-3], prof.params)
        consts.append(envelope_check(prof, fam).worst_ratio)
    assert max(consts) < 2.0 * min(consts)


def test_rate_formula_sign_and_synthetic_recovery(params, bubble):
    cal = calibrated_bubble(bubble)
    integrals = bubble_weighted_integrals(cal, 5, 1.0)
    assert integrals["sq_mass"] > 0.0
    assert integrals["crit_mass"] > 0.0
    A = -0.37  # synthetic rate constant
    mus = [1e-2, 1e-3, 1e-4]
    seq = []
    for mu in mus:
        p = A * mu ** 2
        # a blow-up family carries nonnegative defects only when A < 0
        # flips sign; here feed |p| and test pure recovery of the constant
        fam = BubbleFamily([mu], replace(params, p_defect=abs(p)))
        seq.append((p, fam))
    rep = rate_check(seq, params, [integrals])
    assert rep["applicable"]
    assert rep["measured_limit"] == pytest.approx(A, rel=0.02)
    formula = rate_formula(params, seq[-1][1], [integrals])
    assert formula < 0.0      # h(0) > 0 forces the negative sign
    assert rep["sign_contradiction"] is False  # defects here are signed
    # with nonnegative defects the contradiction flag must fire
    seq_pos = [(abs(p), fam) for p, fam in seq]
    rep2 = rate_check(seq_pos, params, [integrals])
    assert rep2["sign_contradiction"] is True


def test_rate_formula_uses_only_last_scale_in_numerator(params, bubble):
    cal = calibrated_bubble(bubble)
    ints = bubble_weighted_integrals(cal, 5, 1.0)
    fam = BubbleFamily([1e-4, 1e-2], params)
    base = rate_formula(params, fam, [ints, ints])
    # doubling the inner bubble's square mass must not move the rate
    inner_bumped = dict(ints)
    inner_bumped["sq_mass"] = 2.0 * ints["sq_mass"]
    assert rate_formula(params, fam, [inner_bumped, ints]) == \
        pytest.approx(base, rel=1e-12)


def test_rate_formula_is_proportional_to_h_origin(params, bubble):
    # h(0) = 4 lam - 39 at n = 5, gamma = -2: 1 at lam = 10, 2 at 10.25,
    # 0 at the threshold 9.75 and -3 at 9
    ints = bubble_weighted_integrals(calibrated_bubble(bubble), 5, 1.0)
    fam = BubbleFamily([1e-3], params)
    base = rate_formula(params, fam, [ints])
    for lam, h0 in ((10.25, 2.0), (9.75, 0.0), (9.0, -3.0)):
        other = ProblemParams(n=5, s=1.0, gamma=-2.0, lam=lam)
        assert rate_formula(other, fam, [ints]) == pytest.approx(
            h0 * base, rel=1e-14, abs=0.0)
        # nonnegative defects contradict the formula only when h(0) > 0
        seq = [(mu ** 2, BubbleFamily(
            [mu], replace(other, p_defect=mu ** 2))) for mu in (1e-2, 1e-3)]
        assert rate_check(seq, other,
                          [ints])["sign_contradiction"] is (h0 > 0.0)


def test_rate_check_empty_inputs(params):
    rep = rate_check([], params, [])
    assert rep["applicable"] is False


def test_scale_count_bound_positive(params):
    bound = scale_count_bound(params, energy_budget=10.0)
    assert bound > 0.0 and math.isfinite(bound)


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
    uniform = continuation_to_critical(
        ref_problem,
        ContinuationSchedule((0.06, 0.05, 0.04, 0.03, 0.02, 0.01, 0.0)),
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
    # unit dp doubles at every step, which no Lipschitz family shows
    ps = [0.8 * 0.5 ** i for i in range(7)]
    steps = [{"p_defect": p, "weighted_sup": 1.0, "sup_increment": 0.06}
             for p in ps]
    rep = compactness_verdict(steps, params)
    assert rep["verdict"] == INCONCLUSIVE
    assert rep["increments_per_unit_p"][-1] == pytest.approx(
        32.0 * rep["increments_per_unit_p"][0])
    # the same increments on a uniform schedule are bounded per unit dp
    uniform = [dict(step, p_defect=0.06 - 0.01 * i)
               for i, step in enumerate(steps)]
    assert compactness_verdict(uniform, params)["verdict"] == COMPACT
    # one increment cannot show a bound
    assert compactness_verdict(steps[:2], params)["verdict"] == INCONCLUSIVE


def test_verdict_empty_is_inconclusive(params):
    rep = compactness_verdict([], params)
    assert rep["verdict"] == INCONCLUSIVE


def test_verdict_blowup_on_diverging_sups(params):
    # synthetic run whose weighted sup norms grow without bound
    steps = [{"p_defect": 0.4 / (i + 1.0), "weighted_sup": sup,
              "sup_increment": sup}
             for i, sup in enumerate((1.0, 6.0, 60.0, 700.0))]
    rep = compactness_verdict(steps, params)
    assert rep["verdict"] == BLOWUP
    assert rep["consistent_with_theory"] is False
    # the flags are sufficient for compactness, not necessary: below the
    # lambda threshold a blow-up verdict contradicts nothing
    low = ProblemParams(n=5, s=1.0, gamma=-2.0, lam=9.0)
    rep = compactness_verdict(steps, low)
    assert rep["theory_compact"] is False
    assert rep["consistent_with_theory"] is True

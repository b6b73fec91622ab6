"""Concentration diagnostics on constructed fixtures: scale detection,
envelopes, the rate formula, and the verdict logic."""

import math

import numpy as np
import pytest

from hardyball.blowup import (BLOWUP, COMPACT, INCONCLUSIVE, BubbleFamily,
                              FamilyError, bubble_weighted_integrals,
                              calibrated_bubble, compactness_verdict,
                              detect_scales, envelope_check, plant_bubbles,
                              rate_check, rate_formula, scale_count_bound)
from hardyball.constants import ProblemParams, beta_pm
from hardyball.solver import ProfileData, SolutionProfile


@pytest.fixture(scope="module")
def params():
    return ProblemParams(n=5, s=1.0, gamma=-2.0, lam=10.0)


def test_family_invariants(params):
    fam = BubbleFamily.from_scales([1e-4, 1e-2], 0.1, params)
    assert len(fam) == 2
    assert np.all((fam.t_limits > 0.0) & (fam.t_limits <= 1.0))
    with pytest.raises(FamilyError):
        BubbleFamily(mu=[1e-2, 1e-4], t_limits=[1.0, 1.0],
                     p_defect=0.0, params=params)
    with pytest.raises(FamilyError):
        BubbleFamily(mu=[1e-2], t_limits=[1.5], p_defect=0.0, params=params)
    with pytest.raises(FamilyError):
        BubbleFamily(mu=[1e-2], t_limits=[1.0, 1.0], p_defect=0.0,
                     params=params)


def test_detect_single_scale(params, bubble):
    radii = np.geomspace(1e-7, 0.5, 4000)
    mu = 1e-3
    prof = plant_bubbles(bubble, [mu], 0.0, params, radii)
    found = detect_scales(prof, 0.0)
    assert len(found) == 1
    assert found[0][0] == pytest.approx(mu, rel=0.05)


def test_detect_two_separated_scales(params, bubble):
    radii = np.geomspace(1e-7, 0.5, 6000)
    prof = plant_bubbles(bubble, [1e-4, 1e-2], 0.0, params, radii)
    found = detect_scales(prof, 0.0)
    assert len(found) == 2
    assert found[0][0] == pytest.approx(1e-4, rel=0.10)
    assert found[1][0] == pytest.approx(1e-2, rel=0.10)


def test_detect_nothing_on_compact_profile(continuation):
    last = continuation[-1]
    assert detect_scales(last, last.p_defect) == []


def test_envelope_on_single_bubble(params, bubble):
    radii = np.geomspace(1e-7, 0.5, 4000)
    mu = 1e-3
    prof = plant_bubbles(bubble, [mu], 0.0, params, radii)
    fam = BubbleFamily.from_scales([mu], 0.0, params)
    rep = envelope_check(prof, fam)
    bm, bp = beta_pm(5, -2.0)
    cal = calibrated_bubble(bubble)
    own = np.max(np.abs(cal.v) * (cal.r ** bm + cal.r ** bp))
    assert 0.5 * own <= rep.worst_ratio <= 2.0 * own
    assert rep.passed  # infinite default budget
    assert rep.annuli


def test_envelope_zero_profile(params):
    r = np.geomspace(1e-5, 0.5, 500)
    prof = SolutionProfile(
        data=ProfileData(r=r, v=np.zeros_like(r), dv=np.zeros_like(r)),
        params=params, p_defect=0.0, K0=0.0, node_count=0, energy=0.0,
        residual_norm=0.0, boundary_value=0.0)
    fam = BubbleFamily.from_scales([1e-3], 0.0, params)
    rep = envelope_check(prof, fam)
    assert rep.worst_ratio == 0.0


def test_envelope_bounded_along_continuation(continuation, params):
    # the constant stabilizes only once the defect is small
    consts = []
    for prof in continuation[-3:]:
        fam = BubbleFamily.from_scales([1e-3], prof.p_defect, params)
        consts.append(envelope_check(prof, fam).worst_ratio)
    assert max(consts) < 2.0 * min(consts)


def test_rate_formula_sign_and_synthetic_recovery(params, bubble):
    theta = params.theta
    cal = calibrated_bubble(bubble)
    integrals = bubble_weighted_integrals(cal, 5, 1.0, theta)
    assert integrals["sq_theta"] > 0.0
    assert integrals["crit_mass"] > 0.0
    A = -0.37  # synthetic rate constant
    mus = [1e-2, 1e-3, 1e-4]
    seq = []
    for mu in mus:
        p = A * mu ** (2.0 - theta)
        # a blow-up family carries nonnegative defects only when A < 0
        # flips sign; here feed |p| and test pure recovery of the constant
        fam = BubbleFamily.from_scales([mu], abs(p), params)
        seq.append((p, fam))
    rep = rate_check(seq, params, [integrals])
    assert rep["applicable"]
    assert rep["measured_limit"] == pytest.approx(A, rel=0.02)
    formula = rate_formula(params, seq[-1][1], [integrals])
    assert formula < 0.0      # c > 0 forces the negative sign
    assert rep["sign_contradiction"] is False  # defects here are signed
    # with nonnegative defects the contradiction flag must fire
    seq_pos = [(abs(p), fam) for p, fam in seq]
    rep2 = rate_check(seq_pos, params, [integrals])
    assert rep2["sign_contradiction"] is True


def test_rate_formula_uses_only_last_scale_in_numerator(params, bubble):
    cal = calibrated_bubble(bubble)
    ints = bubble_weighted_integrals(cal, 5, 1.0, 0.0)
    fam = BubbleFamily.from_scales([1e-4, 1e-2], 0.0, params)
    base = rate_formula(params, fam, [ints, ints])
    # doubling the inner bubble's square mass must not move the rate
    inner_bumped = dict(ints)
    inner_bumped["sq_theta"] = 2.0 * ints["sq_theta"]
    assert rate_formula(params, fam, [inner_bumped, ints]) == \
        pytest.approx(base, rel=1e-12)


def test_rate_check_empty_inputs(params):
    rep = rate_check([], params, [])
    assert rep["applicable"] is False


def test_scale_count_bound_positive(params):
    bound = scale_count_bound(params, energy_budget=10.0)
    assert bound > 0.0 and math.isfinite(bound)


def test_verdict_compact_on_continuation(continuation, params):
    rep = compactness_verdict([prof.meta for prof in continuation], params)
    assert rep["verdict"] == COMPACT
    assert rep["theory_compact"] is True
    assert rep["consistent_with_theory"] is True


def test_verdict_empty_is_inconclusive(params):
    rep = compactness_verdict([], params)
    assert rep["verdict"] == INCONCLUSIVE


def test_verdict_blowup_on_diverging_sups(params):
    # synthetic run whose weighted sup norms grow without bound
    r = np.geomspace(1e-5, 0.5, 200)
    profiles = []
    for i, sup in enumerate((1.0, 6.0, 60.0, 700.0)):
        prof = SolutionProfile(
            data=ProfileData(r=r, v=np.full_like(r, sup),
                             dv=np.zeros_like(r)),
            params=params, p_defect=0.4 / (i + 1.0), K0=1.0, node_count=0,
            energy=1.0, residual_norm=0.0, boundary_value=sup,
            meta={"weighted_sup": sup, "sup_increment": float(sup)})
        profiles.append(prof)
    rep = compactness_verdict([prof.meta for prof in profiles], params)
    assert rep["verdict"] == BLOWUP
    assert rep["consistent_with_theory"] is False

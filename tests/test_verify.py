"""Identity audits: the annulus momentum balance, the two hyperbolic
inequalities, and exponent extraction."""

import math

import numpy as np
import pytest

from hardyball import verify
from hardyball.bridge import EuclideanProblem
from hardyball.constants import ProblemParams, beta_pm
from hardyball.grids import ProfileData
from hardyball.kernel import (hyperbolic_dirichlet_energy,
                              hyperbolic_integral, hyperbolic_scaling,
                              weight_V_p)
from hardyball.solver import ProfileData, SolutionProfile, shoot
from hardyball.verify import (VerificationError, VerificationReport,
                              asymptotic_exponent, hardy_check,
                              hardy_sharpness_error, hardy_sobolev_check,
                              pohozaev_residual)

from conftest import ConstStub


# ---------------------------------------------------------------- Pohozaev

def test_constant_profile_balances_exactly():
    # gamma = 0, h0 = 0 (lam = 3.75), b = 0, v = 1: every term vanishes
    # identically
    params = ProblemParams(n=5, s=1.0, gamma=0.0, lam=3.75, p_defect=0.2)
    prob = EuclideanProblem(params, domain_radius=0.5, b_scale=0.0)
    r = np.geomspace(1e-4, 0.5, 600)
    prof = SolutionProfile(
        data=ProfileData(r=r, v=np.ones_like(r), dv=np.zeros_like(r)),
        params=params, K0=1.0, energy=0.0, residual_norm=0.0)
    br = pohozaev_residual(prof, prob, (1e-3, 0.4))
    for name in ("h_term", "p_defect_term", "grad_b_term",
                 "flux_outer", "flux_inner", "total"):
        assert getattr(br, name) == 0.0


def test_ground_state_residual_and_refinement(ref_problem, ground_shoot):
    K = ground_shoot.meta["K_shoot"]
    rels = []
    for num in (400, 800, 1600):
        prof = shoot(ref_problem, K, 0.2, num=num, rtol=1e-13,
                     atol_scale=1e-15)
        br = pohozaev_residual(prof, ref_problem, (5e-4, 0.5))
        rels.append(br.relative)
    assert rels[0] <= 1e-4
    assert rels[0] / rels[1] >= 8.0
    assert rels[1] / rels[2] >= 8.0


def test_bubble_residual_small(bubble):
    params = ProblemParams(n=5, s=1.0, gamma=-2.0)
    prof = SolutionProfile(data=bubble.data, params=params, K0=bubble.K,
                           energy=1.0, residual_norm=0.0)
    br = pohozaev_residual(prof, ConstStub(bubble.b0, params), (1e-2, 1e2))
    assert br.relative <= 1e-4
    assert br.grad_b_term == 0.0


def test_pohozaev_annulus_validation(ref_problem, ground_shoot):
    with pytest.raises(VerificationError):
        pohozaev_residual(ground_shoot, ref_problem, (0.4, 0.3))
    with pytest.raises(VerificationError):
        pohozaev_residual(ground_shoot, ref_problem, (1e-12, 0.4))
    with pytest.raises(VerificationError):
        # snapped endpoints leave fewer than eight nodes in between
        r0 = ground_shoot.data.r[100]
        pohozaev_residual(ground_shoot, ref_problem,
                          (r0, r0 * 1.0001))


# ------------------------------------------------------------ inequalities

GRID = np.geomspace(1e-8, 1.0 - 1e-6, 1500)


def _bump(rng):
    center = rng.uniform(math.log(1e-3), math.log(0.05))
    width = rng.uniform(0.2, 0.5)
    vals = np.exp(-((np.log(GRID) - center) / width) ** 2)
    vals[vals < 1e-14] = 0.0
    return ProfileData(GRID, vals)


def test_hardy_margin_nonnegative(rng):
    # relative margin: -1e-8 of the gradient energy
    margins = hardy_check([_bump(rng) for _ in range(20)], 5)
    assert all(margin >= -1e-8 for margin in margins)


def test_hardy_margin_is_relative(rng):
    u = _bump(rng)
    energy = hyperbolic_dirichlet_energy(u, 5)
    mass = hyperbolic_integral(lambda r: weight_V_p(r, 5, 2.0), u, 2.0, 5)
    assert hardy_check([u], 5) == [(energy - 2.25 * mass) / energy]


def test_hardy_check_batch_matches_single_calls(rng):
    # one panel rule for the whole batch gives every margin bit for bit,
    # the zero profile among them
    us = [_bump(rng) for _ in range(6)]
    us.insert(2, ProfileData(GRID, np.zeros(len(GRID))))
    single = [hardy_check([u], 5)[0] for u in us]
    assert hardy_check(us, 5) == single
    assert single[2] == 0.0


def test_hardy_check_rejects_mixed_grids(rng):
    other = ProfileData(GRID * 0.5, _bump(rng).v)
    with pytest.raises(VerificationError):
        hardy_check([_bump(rng), other], 5)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_hardy_sharpness_audit_passes(n):
    assert hardy_sharpness_error(n) <= 1e-4


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_hardy_sharpness_audit_catches_a_raised_constant(n, monkeypatch):
    sharp = verify.hardy_constant(n)
    monkeypatch.setattr(verify, "hardy_constant", lambda n: sharp * 1.001)
    assert hardy_sharpness_error(n) > 1e-4


def test_hardy_zero_function():
    u = ProfileData(GRID, np.zeros(len(GRID)))
    assert hardy_check([u], 5) == [0.0]


def test_hardy_sobolev_positive_and_scale_invariant(rng):
    u = _bump(rng)
    base = hardy_sobolev_check(u, 5, 1.0, -2.0)
    assert base > 0.0
    for lam in (0.5, 2.0, 5.0):
        moved = hyperbolic_scaling(u, lam, 5)
        q = hardy_sobolev_check(moved, 5, 1.0, -2.0)
        assert q == pytest.approx(base, rel=1e-5)


def test_hardy_sobolev_guards(rng):
    u = _bump(rng)
    with pytest.raises(VerificationError):
        hardy_sobolev_check(u, 5, 1.0, 2.25)   # threshold (n-2)^2/4
    zero = ProfileData(GRID, np.zeros(len(GRID)))
    with pytest.raises(VerificationError):
        hardy_sobolev_check(zero, 5, 1.0, -2.0)


# --------------------------------------------------------------- exponents

def _power_profile(expo):
    r = np.geomspace(1e-6, 0.4, 800)
    params = ProblemParams(n=5, s=1.0, gamma=-2.0)
    return SolutionProfile(
        data=ProfileData(r=r, v=r ** expo, dv=expo * r ** (expo - 1.0)),
        params=params, K0=1.0, energy=1.0, residual_norm=0.0)


@pytest.mark.parametrize("expo", [-1.3, -0.5616, 0.0, 0.7])
def test_exponent_recovers_pure_powers(expo):
    slope, err = asymptotic_exponent(_power_profile(expo), (1e-5, 1e-2))
    assert slope == pytest.approx(expo, abs=1e-10)
    assert err <= 1e-10


def test_exponent_on_ground_state(ground_shoot):
    bm, _ = beta_pm(5, -2.0)
    sl_e, _ = asymptotic_exponent(ground_shoot, (1e-5, 1e-3))
    assert sl_e == pytest.approx(-bm, rel=2e-2)


def test_exponent_guards():
    prof = _power_profile(-1.0)
    with pytest.raises(VerificationError):
        asymptotic_exponent(prof, (1e-6, 1.03e-6))  # too few nodes
    sign_flip = _power_profile(0.0)
    sign_flip.data.v[:] = np.sin(np.log(sign_flip.data.r))
    with pytest.raises(VerificationError):
        asymptotic_exponent(sign_flip, (1e-5, 1e-2))


# ------------------------------------------------------------ reports etc.

def test_verification_report():
    rep = VerificationReport(provenance={"case": "unit"})
    rep.add("small", 1e-9, 1e-6)
    rep.add("flagged", 2.0, 1.0)
    assert not rep.passed
    d = rep.as_dict()
    assert d["provenance"] == {"case": "unit"}
    assert [c["passed"] for c in d["checks"]] == [True, False]
    rep2 = VerificationReport()
    rep2.add("forced", 5.0, 1.0, passed=True)
    assert rep2.passed

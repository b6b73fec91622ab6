"""Acceptance gate: eleven end-to-end criteria, each a single test that
prints one pass line on success (a failure surfaces as the usual pytest
FAILED line for that criterion)."""

import hashlib
import json
import math
import os
import time

import numpy as np
import pytest

from hardyball import blowup as blowup_mod
from hardyball.bridge import (EuclideanProblem, b_origin,
                              residual_equivalence_check)
from hardyball.cli import main
from hardyball.constants import ProblemParams, beta_pm, critical_exponent
from hardyball.grids import ProfileData
from hardyball.kernel import (green_G, hyperbolic_dirichlet_energy,
                              hyperbolic_integral, hyperbolic_scaling,
                              weight_V_p)
from hardyball.solver import SolutionProfile, solve_dirichlet_shooting
from hardyball.verify import (asymptotic_exponent, hardy_check,
                              hardy_sobolev_check, pohozaev_residual)

from conftest import ConstStub, sampled_shoot


def _report(num, label):
    print(f"criterion {num:2d} ({label}): PASS")


GRID = np.geomspace(1e-8, 1.0 - 1e-6, 1500)


def _bump(rng, grid=GRID):
    center = rng.uniform(math.log(1e-3), math.log(0.05))
    width = rng.uniform(0.2, 0.5)
    vals = np.exp(-((np.log(grid) - center) / width) ** 2)
    vals[vals < 1e-14] = 0.0
    return ProfileData(grid, vals)


def test_criterion_01_kernel_exactness():
    start = time.perf_counter()
    radii = np.linspace(0.05, 0.95, 20)
    exact = (1.0 - radii) ** 2 / radii
    assert np.max(np.abs(green_G(radii, 3) - exact) / exact) < 1e-10
    for n in (3, 5, 7):
        val = float(weight_V_p(1e-4, n, 2.0)) * 4.0 * 1e-8
        assert 0.999 <= val <= 1.001
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "kernel exactness")


def test_criterion_02_scaling_invariance(rng):
    start = time.perf_counter()
    n, s = 5, 1.0
    q = critical_exponent(n, s)
    for _ in range(20):
        u = _bump(rng)
        base_grad = hyperbolic_dirichlet_energy(u, n)
        base_p = {p: hyperbolic_integral(
            lambda r, p=p: weight_V_p(r, n, p), u, p, n)
            for p in (2.0, q)}
        for lam in (0.5, 2.0, 5.0):
            moved = hyperbolic_scaling(u, lam, n)
            grad = hyperbolic_dirichlet_energy(moved, n)
            assert grad == pytest.approx(base_grad, rel=1e-6)
            for p in (2.0, q):
                val = hyperbolic_integral(
                    lambda r, p=p: weight_V_p(r, n, p), moved, p, n)
                assert val == pytest.approx(base_p[p], rel=1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(2, "scaling invariance")


def test_criterion_03_conformal_bridge():
    start = time.perf_counter()
    from hardyball.bridge import b_weight
    for n in (5, 6, 7):
        for s in (0.5, 1.0, 1.5):
            expect = (n - 2.0) ** ((2.0 - s) / (n - 2.0)) / 2.0 ** (2.0 - s)
            assert b_weight(1e-8, n, s) == pytest.approx(expect, rel=1e-6)
    params = ProblemParams(n=5, s=1.0, gamma=-2.0, lam=10.0)
    prob = EuclideanProblem(params)
    rels = []
    for num in (400, 800, 1600):
        r = np.geomspace(1e-4, 0.5, num)
        u = ProfileData(r, np.exp(-((np.log(r) + 3.0) / 1.2) ** 2))
        rels.append(residual_equivalence_check(u, prob)
                    ["relative_difference"])
    assert rels[0] / rels[1] >= 8.0 and rels[1] / rels[2] >= 8.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, "conformal bridge")


def test_criterion_04_indicial_correctness(ground_shoot):
    # r^-beta solves the linear radial Hardy equation exactly when beta is
    # a root of the indicial polynomial beta^2 - (n-2) beta + gamma
    for beta in beta_pm(5, -2.0):
        assert (abs(beta * beta - 3.0 * beta - 2.0)
                / max(1.0, 2.0 + beta * beta)) < 1e-10
    bm, _ = beta_pm(5, -2.0)
    slopes = []
    for window in ((1e-5, 1e-3), (3e-5, 3e-3)):
        slope, _ = asymptotic_exponent(ground_shoot, window)
        assert slope == pytest.approx(-bm, rel=0.02)
        slopes.append(slope)
    assert abs(slopes[0] - slopes[1]) <= 0.005 * abs(bm)
    _report(4, "indicial correctness")


def test_criterion_05_solver_cross_validation(ref_params, ref_problem,
                                              ground_shoot, ground_var):
    sup = np.max(np.abs(ground_shoot.data.v))
    vs = ground_var.data.spline()(np.log(ground_shoot.data.r))
    assert np.max(np.abs(vs - ground_shoot.data.v)) <= 2e-3 * sup
    assert ground_var.energy == pytest.approx(ground_shoot.energy, rel=1e-4)
    p, kappa = 0.2, 16.0
    q = critical_exponent(5, 1.0)
    scaled = EuclideanProblem(ref_params, domain_radius=0.5, b_scale=kappa)
    prof = solve_dirichlet_shooting(scaled, p=p)
    factor = kappa ** (-1.0 / (q - 2.0 - p))
    target = factor * ground_shoot.data.v
    assert np.max(np.abs(prof.data.v - target)) \
        <= 1e-6 * np.max(np.abs(target))
    _report(5, "solver cross-validation")


def test_criterion_06_pohozaev_identity(ref_problem, ground_shoot, bubble):
    K = ground_shoot.meta["K_shoot"]
    rels = []
    for num in (400, 800, 1600):
        prof = sampled_shoot(ref_problem, K, 0.2, num=num, rtol=1e-13,
                             atol_scale=1e-15)
        br = pohozaev_residual(prof, ref_problem, (5e-4, 0.5))
        rels.append(br.relative)
    assert rels[0] <= 1e-4
    assert rels[0] / rels[1] >= 8.0 and rels[1] / rels[2] >= 8.0
    params = ProblemParams(n=5, s=1.0, gamma=-2.0)
    bprof = SolutionProfile(data=bubble.data, params=params,
                            K0=bubble.K, energy=1.0, residual_norm=0.0)
    bres = pohozaev_residual(bprof, ConstStub(bubble.b0, params),
                             (1e-2, 1e2))
    assert bres.relative <= 1e-4
    _report(6, "annulus momentum identity")


def test_criterion_07_limit_bubble(bubble):
    bm, bp = beta_pm(5, -2.0)
    d = bubble.data
    inner = np.polyfit(np.log(d.r[:400]), np.log(np.abs(d.v[:400])), 1)[0]
    outer = np.polyfit(np.log(d.r[-400:]), np.log(np.abs(d.v[-400:])), 1)[0]
    assert inner == pytest.approx(-bm, rel=0.02)
    assert outer == pytest.approx(-bp, rel=0.02)
    decades = math.log10(d.r[-1] / d.r[0])
    assert decades >= 6.0
    bound = np.abs(d.v) * (d.r ** bm + d.r ** bp)
    assert np.max(bound) < 10.0 * np.median(bound)
    _report(7, "limit bubble asymptotics")


def test_criterion_08_compactness_witness(continuation, continuation_steps,
                                          ref_params):
    build = continuation[0].meta.get("fixture_build_seconds", 0.0)
    assert build < 600.0
    rep = blowup_mod.compactness_verdict(continuation_steps, ref_params)
    assert rep["verdict"] == blowup_mod.COMPACT
    assert all(rep["flags"].values())
    incs = rep["sup_increments"]
    ratios = [b / a for a, b in zip(incs, incs[1:])]
    assert float(np.exp(np.mean(np.log(ratios)))) < 0.9
    _report(8, "compactness witness")


def test_criterion_09_blowup_machinery(ref_params, bubble):
    radii = np.geomspace(1e-7, 0.5, 6000)
    one = blowup_mod.plant_bubbles(bubble, [1e-3], ref_params, radii)
    got = blowup_mod.detect_scales(one)
    assert len(got) == 1 and got[0][0] == pytest.approx(1e-3, rel=0.10)
    two = blowup_mod.plant_bubbles(bubble, [1e-4, 1e-2], ref_params, radii)
    got2 = blowup_mod.detect_scales(two)
    assert len(got2) == 2
    assert got2[0][0] == pytest.approx(1e-4, rel=0.10)
    assert got2[1][0] == pytest.approx(1e-2, rel=0.10)
    worst, _ = blowup_mod.envelope_check(one, [1e-3])
    assert 0.0 < worst < math.inf
    A = -0.37
    seq = []
    for mu in (1e-2, 1e-3, 1e-4):
        p = A * mu ** 2
        seq.append((p, [mu]))
    out = blowup_mod.rate_check(seq, ref_params)
    assert out["applicable"]
    assert out["measured_limit"] == pytest.approx(A, rel=0.02)
    assert out["formula"] < 0.0
    seq_pos = [(abs(p), f) for p, f in seq]
    assert blowup_mod.rate_check(seq_pos,
                                 ref_params)["sign_contradiction"] is True
    _report(9, "blow-up machinery")


def test_criterion_10_hardy_inequalities():
    rng = np.random.default_rng(11)
    # relative margin: -1e-8 of the gradient energy
    margins = hardy_check([_bump(rng) for _ in range(100)], 5)
    assert all(margin >= -1e-8 for margin in margins)
    infima = []
    for seed in (11, 12):
        gen = np.random.default_rng(seed)
        vals = [hardy_sobolev_check(_bump(gen), 5, 1.0, -2.0)
                for _ in range(200)]
        infima.append(min(vals))
    assert infima[0] > 0.0 and infima[1] > 0.0
    assert abs(infima[0] - infima[1]) <= 0.05 * max(infima)
    _report(10, "hyperbolic inequalities")


def test_criterion_11_determinism(tmp_path, capsys):
    cfg_path = str(tmp_path / "run.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump({
            "params": {"n": 5, "s": 1.0, "gamma": -2.0, "lam": 10.0,
                       "p_defect": 0.2},
            "solver": {"rtol": 1e-9},
            "sweep": {"gamma": [-2.0, -3.0]},
        }, fh)
    digests = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert main(["sweep", "--config", cfg_path, "--out", out,
                     "--seed", "7"]) == 0
        with open(os.path.join(out, "sweep.csv"), "rb") as fh:
            blob = fh.read()
        digests.append(hashlib.sha256(blob).hexdigest())
    assert digests[0] == digests[1]
    capsys.readouterr()
    _report(11, "deterministic reruns")

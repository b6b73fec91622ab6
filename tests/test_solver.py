"""Shooting, variational cross-check, continuation, and the entire-space
profile."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hardyball import bridge, ode, solver
from hardyball.bridge import EuclideanProblem, b_origin
from hardyball.constants import (AdmissibilityError, ProblemParams, beta_pm,
                                 critical_exponent)
from hardyball.grids import (GridError, ProfileData, _sign_changes,
                             log_derivative_matrix_apply, spline_integral)
from hardyball.kernel import sphere_area
from hardyball.profiles import EntireBubble
from hardyball.solver import (BracketNotFound, NotCoercive, NotConverged,
                              SolverError, continuation_to_critical,
                              frobenius_init, shoot, solve_dirichlet_shooting,
                              solve_variational)
from hardyball.verify import asymptotic_exponent

from conftest import sampled_shoot, warm


def test_frobenius_init_trivial_cases():
    # lam = 3.75 at gamma = 0 and lam = 9.75 at gamma = -2 give h0 = 0
    params = ProblemParams(n=5, s=1.0, gamma=0.0, lam=3.75)
    prob = EuclideanProblem(params)
    assert prob.h0 == 0.0
    v, dv = frobenius_init(prob, K=1.0, r0=1e-5)
    assert v == pytest.approx(1.0, rel=1e-12)
    assert dv == pytest.approx(0.0, abs=1e-7)
    params2 = ProblemParams(n=5, s=1.0, gamma=-2.0, lam=9.75)
    prob2 = EuclideanProblem(params2)
    assert prob2.h0 == 0.0
    bm, _ = beta_pm(5, -2.0)
    v2, _ = frobenius_init(prob2, K=1.0, r0=1e-5)
    assert v2 == pytest.approx(1e-5 ** -bm, rel=1e-12)


def test_frobenius_jet_residual_improves_with_r0():
    # the linear residual of the jet, computed with exact derivatives of
    # K r^sigma (1 + a1 r^2), is O(r^4) relative to v / r^2: shrinking the
    # start radius by 10 gains at least 10^2
    params = ProblemParams(n=5, s=1.0, gamma=-2.0, lam=10.0)
    prob = EuclideanProblem(params)
    bm, _ = beta_pm(5, -2.0)
    sigma = -bm
    h0 = prob.h0
    a1 = -h0 / ((sigma + 2.0) * (sigma + 5.0) + params.gamma)

    def jet_residual(r0):
        v = r0 ** sigma * (1.0 + a1 * r0 ** 2)
        d1 = sigma * r0 ** (sigma - 1.0) + a1 * (sigma + 2.0) * r0 ** (sigma + 1.0)
        d2 = sigma * (sigma - 1.0) * r0 ** (sigma - 2.0) \
            + a1 * (sigma + 2.0) * (sigma + 1.0) * r0 ** sigma
        lin = -d2 - 4.0 / r0 * d1 - (params.gamma / r0 ** 2 + h0) * v
        return abs(lin) / (v / r0 ** 2)

    assert jet_residual(1e-4) / jet_residual(1e-3) < 1.5e-2


def test_shoot_constant_solution():
    params = ProblemParams(n=5, s=1.0, gamma=0.0, lam=3.75)
    prob = EuclideanProblem(params, b_scale=0.0)
    prof = sampled_shoot(prob, K=1.0, p=0.2)
    assert np.max(np.abs(prof.data.v - 1.0)) < 1e-9
    assert prof.data.v[-1] == pytest.approx(1.0, rel=1e-9)


def test_shoot_singular_linear_branch():
    # with the nonlinearity off, the r^{2-n} harmonic branch propagates
    # exactly (gamma = 0 start on the decaying branch needs a custom jet,
    # so drive the linear equation with gamma slightly negative)
    # (and lam such that h0 = 12 gamma + 4 lam - 15 vanishes to round-off)
    n, gamma = 5, -1e-8
    params = ProblemParams(n=n, s=1.0, gamma=gamma, lam=3.75 + 3e-8)
    prob = EuclideanProblem(params, b_scale=0.0)
    assert abs(prob.h0) <= 1e-14
    bm, bp = beta_pm(n, gamma)
    prof = sampled_shoot(prob, K=1.0, p=0.2, r0=1e-4)
    # beta_- ~ 0: the solution stays near the constant branch
    assert np.max(np.abs(prof.data.v - 1.0)) < 1e-5


def test_shoot_collocation_cross_check(ref_problem):
    # independent fixed-step RK4 integration of the same initial-value
    # problem in log radius
    K, p = 1.0, 0.2
    r0 = 1e-5 * 0.5
    prof = sampled_shoot(ref_problem, K, p, num=2001)
    n, gamma, s = 5, -2.0, 1.0
    q = critical_exponent(n, s)
    h = ref_problem.h0

    def rhs(t, y):
        v, vt = y
        r = math.exp(t)
        b = float(ref_problem.b(r))
        return np.array([vt, -3.0 * vt - (gamma + h * r * r) * v
                         - b * abs(v) ** (q - 2.0 - p) * v * r ** (2.0 - s)])

    from hardyball.solver import frobenius_init
    v0, dv0 = frobenius_init(ref_problem, K, r0)
    t = np.linspace(math.log(r0), math.log(0.5), 40001)
    ht = t[1] - t[0]
    y = np.array([v0, dv0 * r0])
    for k in range(len(t) - 1):
        k1 = rhs(t[k], y)
        k2 = rhs(t[k] + 0.5 * ht, y + 0.5 * ht * k1)
        k3 = rhs(t[k] + 0.5 * ht, y + 0.5 * ht * k2)
        k4 = rhs(t[k] + ht, y + ht * k3)
        y = y + ht / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert prof.data.v[-1] == pytest.approx(float(y[0]), rel=1e-6)


def test_ground_state_basic_properties(ground_shoot):
    prof = ground_shoot
    assert prof.data.node_count() == 0
    assert np.all(prof.data.v[:-1] > 0.0)
    sup = np.max(np.abs(prof.data.v))
    assert abs(prof.data.v[-1]) <= 1e-8 * sup
    assert prof.energy > 0.0
    assert prof.residual_norm < 1e-5


def test_ground_state_slope_is_minus_beta_minus(ground_shoot):
    bm, _ = beta_pm(5, -2.0)
    r0 = ground_shoot.data.r[0]
    slope, stderr = asymptotic_exponent(ground_shoot, (r0 * 10, r0 * 100))
    assert slope == pytest.approx(-bm, rel=0.02)
    # window stability: shifting by half a decade barely moves the slope
    slope2, _ = asymptotic_exponent(
        ground_shoot, (r0 * 10 ** 1.5, r0 * 10 ** 2.5))
    assert abs(slope2 - slope) < 0.005 * abs(slope)


def test_scaling_symmetry_b_times_16(ref_params, ref_problem, ground_shoot):
    # b -> 16 b rescales the solution by 16^{-1/(q-2-p)}
    p = 0.2
    q = critical_exponent(5, 1.0)
    kappa = 16.0
    scaled_prob = EuclideanProblem(ref_params, domain_radius=0.5,
                                   b_scale=kappa)
    prof = solve_dirichlet_shooting(scaled_prob, p=p)
    factor = kappa ** (-1.0 / (q - 2.0 - p))
    base = ground_shoot.data.v
    assert np.max(np.abs(prof.data.v - factor * base)) \
        <= 1e-6 * np.max(np.abs(factor * base))


def test_variational_agrees_with_shooting(ground_shoot, ground_var):
    sup = np.max(np.abs(ground_shoot.data.v))
    vs = ground_var.data.spline()(np.log(ground_shoot.data.r))
    assert np.max(np.abs(vs - ground_shoot.data.v)) <= 2e-3 * sup
    assert ground_var.energy == pytest.approx(ground_shoot.energy, rel=1e-4)
    assert ground_var.energy > 0.0


def test_variational_newton_converges_at_second_order(ref_problem,
                                                      ground_shoot,
                                                      ground_var):
    # Newton converges in a few steps on every grid, and the energy gap to
    # shooting is the discretization's, falling ~4x per grid doubling
    profs = [solve_variational(ref_problem, p=0.2, num=num)
             for num in (400, 800)] + [ground_var]
    gaps = []
    for prof in profs:
        assert prof.meta["converged"] is True
        assert prof.meta["newton_steps"] <= 6
        assert prof.meta["newton_change"] <= 1e-12
        assert prof.data.node_count() == 0
        gaps.append(abs(prof.energy - ground_shoot.energy))
    assert gaps[0] >= 3.0 * gaps[1] and gaps[1] >= 3.0 * gaps[2]


def test_variational_newton_stops_at_its_round_off_floor(ref_problem,
                                                         ground_shoot,
                                                         ground_var):
    # at num = 12,800 the relative steps stall between 1e-12 and 6e-12 from
    # the fifth on, so the 1e-12 rule alone runs to the step cap; a step
    # below 1e-9 that does not halve ends the solve as converged
    prof = solve_variational(ref_problem, p=0.2, num=12800)
    assert prof.meta["converged"] is True
    assert prof.meta["newton_steps"] < 10
    assert prof.meta["newton_change"] <= 1e-9
    assert prof.energy == pytest.approx(ground_shoot.energy, rel=1e-4)
    # on the default grid the 1e-12 rule still decides, after 4 steps
    assert ground_var.meta["newton_steps"] == 4
    assert ground_var.meta["newton_change"] <= 1e-12


def test_variational_raises_not_converged_at_the_newton_cap(ref_problem,
                                                            monkeypatch):
    monkeypatch.setattr(solver, "_NEWTON_STEPS", 1)
    with pytest.raises(NotConverged):
        solve_variational(ref_problem, p=0.2, num=400)


def test_excited_state_has_one_node_and_higher_energy(ref_problem,
                                                      ground_shoot):
    prof = solve_dirichlet_shooting(ref_problem, p=0.2, node_target=1)
    assert prof.data.node_count() == 1
    assert prof.energy > ground_shoot.energy


def test_brent_root_meets_the_shooting_conditions(ground_shoot):
    prof = ground_shoot
    sup = np.max(np.abs(prof.data.v))
    assert abs(prof.data.v[-1]) <= prof.meta["boundary_tol"] * sup
    assert prof.data.node_count() == 0
    # K0 of the same solve by node-count bisection to 1e-15 in K
    assert prof.K0 == pytest.approx(7116.944437322512, rel=1e-7)


def test_cold_solve_shoot_count(ground_shoot):
    # the scaling estimate (K ~ 1901) and three steps outward (the third
    # crosses), all four loose, then four for Brent's root on the phase, the
    # last of which is the profile
    meta = ground_shoot.meta
    assert meta["shoots"] == 8
    assert [meta[f"shoots_{phase}"] for phase in
            ("walk", "brent", "loose")] == [4, 4, 4]
    assert meta["rhs_evals"] == 6868


def test_a_solve_builds_one_profile(ref_problem, monkeypatch):
    # the shoots stay integrations: only the root is sampled, into the
    # solve's one SolutionProfile and its one ProfileData
    built = []

    def counted(cls):
        return lambda *args, **kw: (built.append(cls.__name__)
                                    or cls(*args, **kw))
    for cls in (ProfileData, solver.SolutionProfile):
        monkeypatch.setattr(solver, cls.__name__, counted(cls))
    prof = solve_dirichlet_shooting(ref_problem, p=0.2)
    assert built == ["ProfileData", "SolutionProfile"]
    assert prof.meta["shoots"] == 8


def test_solver_counters_repeat_exactly(ref_problem, ground_shoot):
    keys = ("shoots", "shoots_walk", "shoots_brent", "shoots_loose",
            "rhs_evals", "steps", "rejected_steps")
    again = solve_dirichlet_shooting(ref_problem, p=0.2)
    counters = {key: ground_shoot.meta[key] for key in keys}
    assert counters == {key: again.meta[key] for key in keys}
    assert all(type(value) is int for value in counters.values())
    assert counters["shoots"] == (counters["shoots_walk"]
                                  + counters["shoots_brent"])
    # the totals are the sums over the shoots: 2 evaluations at each start
    # and 12 per attempted step, and 3 per accepted step of the one shoot
    # whose interpolant is built, the root's
    K = ground_shoot.meta["K_shoot"]
    root = shoot(ref_problem, K, 0.2)
    solver._sampled(root, ref_problem, K, 0.2, ground_shoot.meta["r0"], 3000)
    assert root.nfev == 2 + 15 * root.steps + 12 * root.rejected
    assert counters["rhs_evals"] == 2 * counters["shoots"] + 12 * (
        counters["steps"] + counters["rejected_steps"]) + 3 * root.steps


def test_solve_profile_is_the_root_shoot(ref_params, ref_problem,
                                        ground_shoot, continuation):
    # the solve samples the integration of Brent's last shoot at 3000 radii,
    # bit for bit what a fresh shoot at that K gives
    again = sampled_shoot(ref_problem, ground_shoot.meta["K_shoot"], 0.2,
                          num=3000)
    for name in ("r", "v", "dv"):
        assert np.array_equal(getattr(ground_shoot.data, name),
                              getattr(again.data, name))
    # the nonlinear mass is the integral the energy already took
    for prof in continuation:
        d, n, s = prof.data, ref_params.n, ref_params.s
        pf = critical_exponent(n, s) - prof.params.p_defect
        mass = sphere_area(n) * spline_integral(
            np.log(d.r),
            ref_problem.b(d.r) * np.abs(d.v) ** pf * d.r ** (n - s))
        assert prof.meta["nonlinear_mass"] == mass


@pytest.mark.parametrize("n, s", [(5, 1.0), (6, 1.5)])
def test_step_ends_give_the_sampled_bracket_data(n, s):
    # a solve reads each shoot's node count, sup|v|, v(R) and phase at the
    # integrator's step ends; over K from 1e-2 to 1e12, at p = 0 and half
    # way to q - 2, they give the node count, the sign of v(R) and the
    # Prufer phase of 1200 samples of the same integration
    params = ProblemParams(n=n, s=s, gamma=-2.0, lam=10.0)
    problem = EuclideanProblem(params, domain_radius=0.5)
    r0 = 1e-5 * 0.5
    counts = set()
    for p in (0.0, 0.5 * (critical_exponent(n, s) - 2.0)):
        for K in np.geomspace(1e-2, 1e12, 29).tolist():
            sol = shoot(problem, K, p)
            sampled = solver._sampled(sol, problem, K, p, r0, 1200)
            (v, sup), (w, wsup) = ((x, np.max(np.abs(x)))
                                   for x in (sol.v_ends, sampled.data.v))
            assert _sign_changes(v, sup) == _sign_changes(w, wsup)
            assert np.sign(v[-1]) == np.sign(w[-1]) != 0.0
            assert solver._prufer_phase(v, sol.w_ends) == \
                pytest.approx(solver._prufer_phase(w, sampled.data.dv
                                                   * sampled.data.r),
                              rel=0.0, abs=1e-12)
            # the step ends miss the peak by less than 0.5 %, the samples
            # by less than 1e-4
            assert 0.995 * wsup <= sup <= 1.0001 * wsup
            counts.add(_sign_changes(v, sup))
    # the grid crosses at least the ground state's root
    assert {0, 1} <= counts


def _phase(prof):
    """The Prufer phase of a shoot, at its samples."""
    return solver._prufer_phase(prof.data.v, prof.data.dv * prof.data.r)


def _ends_phase(sol):
    """The Prufer phase of an integration, at its step ends."""
    return solver._prufer_phase(sol.v_ends, sol.w_ends)


@pytest.mark.parametrize("n, s", [(5, 1.0), (6, 1.5)])
def test_loose_shoots_outside_the_band_give_the_bracket_data(n, s):
    # the walk shoots at the loose rtol; wherever its phase lies more than
    # the redo band from every multiple of pi, its step ends give the sign
    # of f = theta(R) - (k + 1) pi, for every k, of 1200 samples of the
    # shoot at the solve's rtol
    params = ProblemParams(n=n, s=s, gamma=-2.0, lam=10.0)
    problem = EuclideanProblem(params, domain_radius=0.5)
    outside = 0
    for p in (0.0, 0.5 * (critical_exponent(n, s) - 2.0)):
        for K in np.geomspace(1e-2, 1e12, 29).tolist():
            loose = _ends_phase(shoot(problem, K, p,
                                      rtol=solver._BRACKET_RTOL))
            tight = _phase(sampled_shoot(problem, K, p, num=1200))
            k = max(round(loose / math.pi), 1)
            if abs(loose - k * math.pi) <= solver._REDO_BAND:
                continue
            outside += 1
            assert loose // math.pi == tight // math.pi
    # no shoot of the grid lies inside the band
    assert outside == 58


@pytest.mark.parametrize("node_target", [0, 1])
def test_loose_phases_near_the_roots_are_within_the_band(ref_problem,
                                                         continuation,
                                                         node_target):
    # at K_root (1 +- delta), delta = 1e-5 ... 1e-1, about the roots of the
    # reference continuation and of k = 1 from p = 0.1 to 0.00625, the
    # loose and the tight step-end phases differ by less than a tenth of
    # the band (by at most 1.1e-6 for k = 0 and 4.7e-6 for k = 1)
    roots = continuation if node_target == 0 else continuation_to_critical(
        ref_problem, (0.1, 0.05, 0.025, 0.0125, 0.00625),
        lambda p, K_start: solve_dirichlet_shooting(
            ref_problem, p, node_target=1, K_range=(1e-4, 1e8),
            K_start=K_start))[0]
    assert len(roots) == (7, 5)[node_target]
    for root in roots:
        p, K = root.params.p_defect, root.meta["K_shoot"]
        for delta in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1):
            for factor in (1.0 - delta, 1.0 + delta):
                loose, tight = (_ends_phase(shoot(ref_problem, K * factor,
                                                  p, rtol=rtol))
                                for rtol in (solver._BRACKET_RTOL, 1e-11))
                assert abs(loose - tight) < 0.1 * solver._REDO_BAND


def test_the_root_is_the_tight_shoot_of_least_phase(ref_problem,
                                                    monkeypatch):
    # at r0 = 5e-7 and rtol 1e-10, noise in v(R)/sup exceeds Brent's stop
    # (5e-10), and Brent's bracket closes on an iterate whose v(R)/sup
    # fails boundary_tol = 1e-9; the solve returns the tight shoot of
    # least |f| instead, which passes it
    shots, roots = [], []
    monkeypatch.setattr(solver, "shoot", lambda *args, **kw: (
        shots.append((args[1], kw["rtol"], shoot(*args, **kw)))
        or shots[-1][2]))
    monkeypatch.setattr(solver, "_brent", lambda *args, **kw: (
        roots.append(ode._brent(*args, **kw)) or roots[-1]))
    prof = solve_dirichlet_shooting(ref_problem, p=0.4, r0=5e-7, rtol=1e-10,
                                    boundary_tol=1e-9)
    tight = {K: sol for K, rtol, sol in shots if rtol == 1e-10}
    # no shoot reaches the stop, so f is the phase less pi at each
    assert all(abs(sol.v_ends[-1]) > 5e-10 * np.max(np.abs(sol.v_ends))
               for sol in tight.values())
    least = min(tight, key=lambda K: abs(_ends_phase(tight[K]) - math.pi))
    assert prof.meta["K_shoot"] == least != math.exp(roots[0])
    for K, passes in ((least, True), (math.exp(roots[0]), False)):
        v = tight[K].v_ends
        assert (abs(v[-1]) <= 1e-9 * np.max(np.abs(v))) == passes
    assert abs(prof.data.v[-1]) <= 1e-9 * np.max(np.abs(prof.data.v))


def test_a_loose_shoot_near_the_root_is_shot_again(ref_problem, ground_shoot,
                                                   monkeypatch):
    # a walk that starts on the root: its loose first shoot reads a phase
    # f inside the band and is shot again at the solve's rtol, which reads
    # 0, so that shoot is the root, with no walk step and no Brent; both
    # integrations are counted
    calls = []
    monkeypatch.setattr(solver, "shoot", lambda *args, **kw: (
        calls.append((args[1], kw["rtol"])) or shoot(*args, **kw)))
    K = ground_shoot.meta["K_shoot"]
    prof = solve_dirichlet_shooting(ref_problem, p=0.2, K_start=K)
    assert calls == [(K, solver._BRACKET_RTOL), (K, 1e-11)]
    assert prof.meta["K_shoot"] == K and prof.K0 == ground_shoot.K0
    assert prof.meta["shoots"] == len(calls) == 2
    assert prof.meta["shoots_loose"] == 1
    assert [prof.meta[f"shoots_{phase}"] for phase in
            ("walk", "brent")] == [2, 0]


def test_a_bracket_shoot_builds_no_interpolant(ref_problem):
    # read at its step ends a shoot makes 2 start evaluations and 12 per
    # attempt; its first sampling adds 3 per accepted step, for rows equal
    # to _dense on the kept stage values, here through a fresh RHS
    sol = shoot(ref_problem, 7116.94, 0.2)
    assert sol.nfev == 2 + 12 * (sol.steps + sol.rejected)
    solver._sampled(sol, ref_problem, 7116.94, 0.2, 5e-6, 1200)
    assert sol.nfev == 2 + 15 * sol.steps + 12 * sol.rejected
    rhs = solver._rhs_factory(ref_problem, 0.2)
    rows = [ode._dense(rhs, *step) for step in sol._kept]
    assert np.array_equal(sol.pieces, np.array(rows))
    # each row starts at a step end
    assert np.array_equal(sol.pieces[:, 0], sol.ts[:-1])
    assert np.array_equal(sol.pieces[:, 2], sol.v_ends[:-1])
    assert np.array_equal(sol.pieces[:, 3], sol.w_ends[:-1])


def test_continuation_shoot_total(continuation):
    # one cold solve, then walks outward from the scaling estimate times
    # the scaling law's residual, extrapolated from the last two roots
    # the walk shoots loosely (3 at p = 0.4 and 0.2, then 2), and none of
    # them lands near enough to a root to be shot again
    shoots = [prof.meta["shoots"] for prof in continuation]
    assert shoots == [7, 7, 5, 5, 5, 5, 5]
    assert sum(shoots) == 39
    assert [prof.meta["shoots_loose"] for prof in continuation] == \
        [3, 3, 2, 2, 2, 2, 2]
    assert sum(prof.meta["rhs_evals"] for prof in continuation) == 37248


def test_walk_clamps_onto_the_range_end(ref_problem, ground_shoot):
    # from K = 1 the walk reaches 316; its next step (to 10^{31/6}) is
    # clamped onto the range end, which lies above the root (K ~ 7117)
    prof = solve_dirichlet_shooting(ref_problem, p=0.2,
                                    K_range=(1e-4, 8000.0), K_start=1.0)
    assert prof.K0 == pytest.approx(ground_shoot.K0, rel=1e-7)
    # a range that ends below the root still has no bracket
    with pytest.raises(BracketNotFound) as err:
        solve_dirichlet_shooting(ref_problem, p=0.2,
                                 K_range=(1e-4, 5000.0), K_start=1.0)
    assert err.value.shoots == 6


@pytest.mark.parametrize("K_start", [7.0, 7.0e6])
def test_warm_start_three_decades_off_finds_the_root(ref_problem, ground_shoot,
                                                     K_start):
    prof = solve_dirichlet_shooting(ref_problem, p=0.2,
                                    K_range=(1e-4, 1e8), K_start=K_start)
    assert prof.K0 == pytest.approx(ground_shoot.K0, rel=1e-7)
    assert prof.data.node_count() == 0
    # walk and Brent: from K = 7 the walk's last step jumps from 0 to 2
    # nodes, across which the phase stays continuous
    split = [prof.meta[f"shoots_{phase}"] for phase in ("walk", "brent")]
    assert split == {7.0: [6, 6], 7.0e6: [6, 6]}[K_start]
    assert sum(split) == prof.meta["shoots"]


def test_continuation_walk_clamps_onto_the_range_end(ref_problem):
    # the walk for p = 0.1 steps from K ~ 7117 to 4849, then is clamped
    # onto the range's lower end 2300, below the root (K ~ 2633); the cold
    # solve walks up from the clamped estimate to the same root
    seq, failure = continuation_to_critical(
        ref_problem, (0.2, 0.1),
        lambda p, K_start: solve_dirichlet_shooting(
            ref_problem, p, K_range=(2300.0, 1e6), K_start=K_start))
    cold = solve_dirichlet_shooting(ref_problem, p=0.1,
                                    K_range=(2300.0, 1e6))
    assert len(seq) == 2 and failure is None
    assert seq[1].K0 == pytest.approx(cold.K0, rel=1e-7)


def test_not_coercive_raises_before_shooting():
    # at gamma = 2.2 the principal eigenvalue of the form is about -0.18
    params = ProblemParams(n=5, s=1.0, gamma=2.2, lam=10.0)
    with pytest.raises(NotCoercive) as err:
        solve_dirichlet_shooting(EuclideanProblem(params), p=0.03)
    assert err.value.shoots == 0


def test_not_coercive_verdict_is_kept(monkeypatch):
    # the second solve on the same problem raises from the kept verdict,
    # again before any shoot
    params = ProblemParams(n=5, s=1.0, gamma=2.2, lam=10.0)
    problem = EuclideanProblem(params)
    counts = []
    count_eigs_below = bridge._count_eigs_below
    monkeypatch.setattr(bridge, "_count_eigs_below", lambda *args: (
        counts.append(args[0]) or count_eigs_below(*args)))
    monkeypatch.setattr(solver, "shoot", None)
    for p in (0.03, 0.01):
        with pytest.raises(NotCoercive) as err:
            solve_dirichlet_shooting(problem, p=p)
        assert err.value.shoots == 0
    assert counts == [-1e-3]


def test_continuation_counts_the_pencil_once(ref_params, monkeypatch):
    # the quadratic form does not depend on p: one Sturm count serves the
    # seven solves of a continuation
    counts = []
    count_eigs_below = bridge._count_eigs_below
    monkeypatch.setattr(bridge, "_count_eigs_below", lambda *args: (
        counts.append(args[0]) or count_eigs_below(*args)))
    schedule = (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125, 0.0)
    problem = EuclideanProblem(ref_params, domain_radius=0.5)
    profiles, failure = continuation_to_critical(problem, schedule,
                                                 warm(problem))
    assert len(profiles) == 7 and failure is None
    assert counts == [-1e-3]


def test_inline_b_rhs_is_the_generic_rhs_bit_for_bit(ref_params, rng):
    # the b table inline, with its piece kept between calls, against the
    # equation written out with problem.b's spline at t = log r: at
    # log-spaced radii, at times within 4 ulp of each knot, and past both
    # ends of the table; shuffled, then ascending and descending
    R, p = 0.5, 0.2
    paper = EuclideanProblem(ref_params, domain_radius=R)
    inline = solver._rhs_factory(paper, p)
    assert "knots" in inline.__code__.co_freevars
    n, gamma, s = ref_params.n, ref_params.gamma, ref_params.s
    expo = critical_exponent(n, s) - 2.0 - p

    def generic(t, v, vt):
        r = math.exp(t)
        return (vt, -(n - 2.0) * vt - (gamma + paper.h0 * r * r) * v
                - float(paper._b_spline(t)) * abs(v) ** expo * v
                * r ** (2.0 - s))

    knots = np.array(paper.b_table()[0])
    assert knots[0] > math.log(1e-9) and knots[-1] == math.log(R)
    near = (knots[:, None] + np.arange(-4, 5) * np.spacing(knots)[:, None])
    t = np.concatenate([np.log(np.geomspace(1e-9, R, 2001)), near.ravel(),
                        np.log([0.7, 0.99])])
    rng.shuffle(t)
    t = np.concatenate([t, np.sort(t), -np.sort(-t)])
    v, vt = rng.standard_normal((2, len(t))) * 1e3
    for args in zip(t.tolist(), v.tolist(), vt.tolist()):
        assert inline(*args) == generic(*args)


@pytest.mark.parametrize("n, s, p", [(7, 1.5, 0.2), (5, 1.9, 0.2),
                                     (5, 1.0, -0.01)])
def test_defect_checked_at_solver_entry(n, s, p):
    # p = q - 2 exactly at n = 7, s = 1.5 (linear equation), p > q - 2 at
    # n = 5, s = 1.9, and a negative p are all refused by both solvers
    # before any shoot or descent step
    params = ProblemParams(n=n, s=s, gamma=-2.0, lam=10.0)
    for solve in (solve_dirichlet_shooting, solve_variational):
        with pytest.raises(AdmissibilityError):
            solve(EuclideanProblem(params), p=p)


def test_bracket_not_found_reports_counts():
    params = ProblemParams(n=5, s=1.0, gamma=-2.0, lam=10.0)
    prob = EuclideanProblem(params)
    with pytest.raises(BracketNotFound):
        solve_dirichlet_shooting(prob, p=0.2, node_target=50,
                                 K_range=(1e-2, 1e0))


@pytest.mark.xfail(strict=True, raises=SolverError,
                   reason="v(R)/sup reads 0 on a concentrated tail while "
                          "theta(R)/pi reads 1.0042: the root has 1 node")
def test_a_concentrated_ground_state_is_accepted_by_its_phase():
    # lambda = -2 concentrates at the origin as p -> 0; at p = 0.2 * 2^-11
    # (mu ~ 90 r0) v(R)/sup of a shoot with one node near R is -1.2e-9,
    # inside the sup-relative stop, so the cold solve takes it for a root
    params = ProblemParams(n=5, s=1.0, gamma=-2.0, lam=-2.0)
    prob = EuclideanProblem(params, domain_radius=0.5)
    p = 0.2 * 2.0 ** -11
    cold = solve_dirichlet_shooting(prob, p, K_range=(1e-4, 1e40))
    assert cold.data.node_count() == 0
    warm_start = solve_dirichlet_shooting(prob, p, K_range=(1e-4, 1e40),
                                          K_start=1e7)
    assert warm_start.meta["K_shoot"] == pytest.approx(
        cold.meta["K_shoot"], rel=1e-8)


def test_continuation_single_step_matches_direct(ref_problem, ground_shoot):
    seq, failure = continuation_to_critical(ref_problem, (0.2,),
                                            warm(ref_problem))
    assert len(seq) == 1 and failure is None
    assert seq[0].energy == pytest.approx(ground_shoot.energy, rel=1e-10)


def test_continuation_compact_regime(continuation):
    # the weighted sup r^{(n-2)/2} |v|^{1 - p/(q-2)} of each profile
    q = critical_exponent(5, 1.0)
    sups = [np.max(prof.data.r ** 1.5 * np.abs(prof.data.v)
                   ** (1.0 - prof.params.p_defect / (q - 2.0)))
            for prof in continuation]
    assert max(sups) <= 10.0 * min(sups)
    incs = [prof.meta["sup_increment"] for prof in continuation[1:]]
    ratios = [b / a for a, b in zip(incs, incs[1:])]
    assert np.exp(np.mean(np.log(ratios))) < 0.9
    # the weighted masses stabilize as the defect vanishes (the uniform
    # bound is asymptotic; early steps sit far from the limit)
    masses = [prof.meta["nonlinear_mass"] for prof in continuation]
    assert all(a >= b for a, b in zip(masses, masses[1:]))
    assert masses[-3] <= 2.0 * masses[-1]
    # the H^1 norms omega int v'^2 r^{n-1} dr, in log r
    norms = [sphere_area(5) * spline_integral(np.log(prof.data.r),
                                              prof.data.dv ** 2
                                              * prof.data.r ** 5)
             for prof in continuation]
    assert max(norms[-3:]) <= 2.0 * min(norms[-3:])


def test_sup_increment_differences_the_shared_samples(continuation):
    # the increment is read off the samples of consecutive steps, which
    # share their radii; profiles on different radii are refused
    a, b = continuation[-2], continuation[-1]
    sup = max(np.max(np.abs(a.data.v)), np.max(np.abs(b.data.v)))
    assert b.meta["sup_increment"] == np.max(np.abs(a.data.v - b.data.v)) / sup
    moved = ProfileData(a.data.r * 0.999, a.data.v)
    with pytest.raises(GridError):
        solver._sup_diff(replace(a, data=moved), b)


def test_bubble_matches_30_digit_integration(bubble):
    # psi = r^{(n-2)/2} w solves psi'' = a psi - b0 psi^{q-1} in t = ln r
    # from its turning point (psi_peak, 0) at t = 0
    mpmath = pytest.importorskip("mpmath")
    q = critical_exponent(bubble.n, bubble.s)
    nu = (bubble.n - 2.0) / 2.0
    with mpmath.workdps(30):
        a = mpmath.mpf(nu * nu - bubble.gamma)
        b0, expo = mpmath.mpf(bubble.b0), mpmath.mpf(q) - 1
        psi = mpmath.odefun(
            lambda t, y: [y[1], a * y[0] - b0 * y[0] ** expo],
            0, [mpmath.mpf(bubble.psi_peak), 0])
        for t in (1.0, 2.0):
            exact = float(psi(t)[0])
            w, _ = bubble.at(math.exp(t))
            assert abs(float(w) * math.exp(nu * t) - exact) <= 1e-12 * exact


def test_bubble_residual_converges_at_fourth_order():
    # the sampled w in the limit equation w_tt + (n-2) w_t + gamma w
    # + b0 r^{2-s} w^{q-1} = 0 (t = ln r), and the sampled dw/dr against
    # w_t / r, by 4th-order differences on |t| <= 2; the 4001 samples
    # halve their log step with the decades
    n, s, gamma = 5, 1.0, -2.0
    b0 = b_origin(n, s)
    q = critical_exponent(n, s)
    res, dv_err = [], []
    for decades in (32.0, 16.0, 8.0):
        d = EntireBubble(n, s, gamma, b0, decades=decades).data
        t = np.log(d.r)
        wt = log_derivative_matrix_apply(t, d.v)
        wtt = log_derivative_matrix_apply(t, wt)
        eq = (wtt + (n - 2.0) * wt + gamma * d.v
              + b0 * d.r ** (2.0 - s) * d.v ** (q - 1.0))
        sel = np.abs(t) <= 2.0
        res.append(np.max(np.abs(eq[sel])) / np.max(np.abs(wtt[sel])))
        dv_err.append(np.max(np.abs(wt / d.r - d.dv)[sel])
                      / np.max(np.abs(d.dv[sel])))
    assert res[-1] <= 1e-8 and dv_err[-1] <= 1e-9
    for errs in (res, dv_err):
        for coarse, fine in zip(errs, errs[1:]):
            assert 14.0 <= coarse / fine <= 18.0


def test_bubble_indicial_limits_over_600_decades():
    # the closed form in log form samples r = 1e-300 without overflow, and
    # w r^{beta_-} there is the exact indicial coefficient K
    n, s, gamma = 5, 1.0, -2.0
    bub = EntireBubble(n, s, gamma, b_origin(n, s), decades=600.0)
    bm, _ = beta_pm(n, gamma)
    d = bub.data
    assert d.r[0] < 1e-299
    assert d.v[0] * d.r[0] ** bm == pytest.approx(bub.K, rel=1e-12)


def test_bubble_tail_slopes_and_global_bound(bubble):
    bm, bp = beta_pm(5, -2.0)
    r = bubble.data.r
    w = bubble.data.v
    inner = slice(0, 400)
    outer = slice(-400, None)
    s_in = np.polyfit(np.log(r[inner]), np.log(w[inner]), 1)[0]
    s_out = np.polyfit(np.log(r[outer]), np.log(w[outer]), 1)[0]
    assert s_in == pytest.approx(-bm, rel=0.02)
    assert s_out == pytest.approx(-bp, rel=0.02)
    bound = np.abs(w) * (r ** bm + r ** bp)
    assert np.max(bound) < math.inf
    assert np.max(bound) < 10.0 * np.median(bound[len(bound) // 3:
                                                  2 * len(bound) // 3])

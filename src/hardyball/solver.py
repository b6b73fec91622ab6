"""Radial solvers for the flat singular Dirichlet problem: outward shooting
with a singular-endpoint jet, nodal targeting, a variational cross-check,
and subcritical continuation."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .bridge import (EuclideanProblem, _quadratic_form_diagonals,
                     _tridiagonal_product)
from .constants import beta_pm, check_defect, critical_exponent
from .grids import (GridError, ProfileData, _sign_changes,
                    log_derivative_matrix_apply, spline_integral,
                    thomas_solve)
from .kernel import sphere_area
from .ode import _brent, _dop853
# the records and errors, re-exported for the solver's callers
from .profiles import (BracketNotFound, NotCoercive,  # noqa: F401
                       NotConverged, SolutionProfile, SolverError,
                       weighted_profile)

# solve_variational's fixed count of projected descent steps, and its cap
# on the Newton steps that follow them
_DESCENT_STEPS = 20
_NEWTON_STEPS = 20
# the walk and bisection read only a node count and the sign of v(R): they
# shoot at a loose rtol, and again at the solve's if |v(R)|/sup lies within
# the band, 22x the loose shoots' largest error in it over 600 shoots
_BRACKET_RTOL, _REDO_BAND = 1e-6, 1e-4


@dataclass(frozen=True)
class ContinuationSchedule:
    p_values: tuple

    def __post_init__(self):
        ps = tuple(float(p) for p in self.p_values)
        object.__setattr__(self, "p_values", ps)
        if any(b >= a for a, b in zip(ps, ps[1:])):
            raise ValueError("schedule must be strictly decreasing")


def _start_radius(problem: EuclideanProblem, r0: float) -> float:
    """The radius r0 at which the solvers start, 1e-5 R unless given."""
    return 1e-5 * problem.domain_radius if r0 is None else r0


def frobenius_init(problem: EuclideanProblem, K: float, r0: float):
    """Leading jet v = K r^{-beta_minus} (1 + a1 r^2) at the singular end;
    the first correction balances the constant linear potential h0."""
    n, gamma = problem.params.n, problem.params.gamma
    bm, _ = beta_pm(n, gamma)
    sigma = -bm
    denom = (sigma + 2.0) * (sigma + n) + gamma
    a1 = -problem.h0 / denom if abs(denom) > 1e-12 else 0.0
    v = K * r0 ** sigma * (1.0 + a1 * r0 ** 2)
    dv = K * (sigma * r0 ** (sigma - 1.0) + a1 * (sigma + 2.0) * r0 ** (sigma + 1.0))
    return v, dv


def _rhs_factory(problem: EuclideanProblem, p: float):
    """ODE in log radius t: v_tt = -(n-2) v_t - (gamma + h0 r^2) v - b |v|^{q-2-p} v r^{2-s},
    with problem.b's evaluation of its table inline, keeping the current
    piece (its bounds in log r, left knot and coefficients) until log r
    leaves it."""
    params = problem.params
    n, gamma, s = params.n, params.gamma, params.s
    q = critical_exponent(n, s)
    expo = q - 2.0 - p
    nm2, r_expo = n - 2.0, 2.0 - s
    h0 = problem.h0
    exp, log = math.exp, math.log
    knots, c0, c1, c2, c3 = problem.b_table()
    inner = len(knots) - 1
    lo = hi = x0 = a0 = a1 = a2 = a3 = math.nan

    def rhs(t, v, vt):
        nonlocal lo, hi, x0, a0, a1, a2, a3
        r = exp(t)
        x = log(r)
        if not lo <= x < hi:
            i = bisect_right(knots, x, 1, inner) - 1
            lo = knots[i] if i > 0 else -math.inf
            hi = knots[i + 1] if i < inner - 1 else math.inf
            x0, a0, a1, a2, a3 = knots[i], c0[i], c1[i], c2[i], c3[i]
        d = x - x0
        d2 = d * d
        b = a3 + a2 * d + a1 * d2 + a0 * (d2 * d)
        return (vt, -nm2 * vt - (gamma + h0 * r * r) * v
                - b * abs(v) ** expo * v * r ** r_expo)

    return rhs


def shoot(problem: EuclideanProblem, K: float, p: float, r0: float = None,
          num: int = 3000, rtol: float = 1e-11,
          atol_scale: float = 1e-13) -> SolutionProfile:
    """Integrate the radial equation outward from the singular-end jet and
    return the (un-matched) trajectory, sampled at num log-uniform radii or,
    for num = None, at the step ends (no dense output).  Its meta counts the
    right-hand side evaluations and the accepted and rejected steps."""
    r0 = _start_radius(problem, r0)
    v0, dv0 = frobenius_init(problem, K, r0)
    guard = 1e12 * max(abs(K), abs(v0), 1.0)
    scale = max(abs(v0), abs(K))
    # v_t = r v'
    sol = _dop853(_rhs_factory(problem, p), math.log(r0),
                  math.log(problem.domain_radius), v0, dv0 * r0, rtol=rtol,
                  atol=atol_scale * scale, guard=guard)
    return _sampled(sol, problem, K, p, r0, num)


def _sampled(sol, problem: EuclideanProblem, K: float, p: float, r0: float,
             num: int) -> SolutionProfile:
    """The shoot of K whose integration is sol, sampled at num log-uniform
    radii from r0 to where the integration ended, or at its step ends."""
    t = sol.ts if num is None else np.linspace(math.log(r0), sol.t_end, num)
    v, vt = (sol.v_ends, sol.w_ends) if num is None else sol(t)
    r = np.exp(t)
    return SolutionProfile(
        data=ProfileData(r=r, v=v, dv=vt / r),
        params=replace(problem.params, p_defect=p), K0=K, energy=math.nan,
        residual_norm=math.nan, trajectory=sol,
        meta={"r0": r0, "R": problem.domain_radius, "rhs_evals": sol.nfev,
              "steps": sol.steps, "rejected_steps": sol.rejected})


def euclidean_energy(profile: SolutionProfile,
                     problem: EuclideanProblem) -> tuple:
    """Value of the action functional (quadratic part minus the weighted
    power term) at the profile, and its nonlinear mass (the integral of
    b |v|^{q-p} / |x|^s over the ball), by spline quadrature."""
    params = profile.params
    n, gamma, s = params.n, params.gamma, params.s
    pf = critical_exponent(n, s) - params.p_defect
    d = profile.data
    t = np.log(d.r)
    r = d.r
    omega = sphere_area(n)
    quad_part = (d.dv ** 2 - gamma * d.v ** 2 / r ** 2
                 - problem.h0 * d.v ** 2) * r ** float(n)
    nl_part = problem.b(r) * np.abs(d.v) ** pf * r ** (n - s)
    I_quad = spline_integral(t, quad_part)
    I_nl = spline_integral(t, nl_part)
    return omega * (0.5 * I_quad - I_nl / pf), omega * I_nl


def dirichlet_norm_sq(profile: SolutionProfile) -> float:
    d = profile.data
    t = np.log(d.r)
    integ = d.dv ** 2 * d.r ** profile.params.n
    return sphere_area(profile.params.n) * spline_integral(t, integ)


def fit_K0(profile: SolutionProfile) -> float:
    """Hopf coefficient lim r^{beta_-} v, averaged over the inner decade."""
    bm, _ = beta_pm(profile.params.n, profile.params.gamma)
    r = profile.data.r
    mask = r <= r[0] * 10.0
    return float(np.mean(profile.data.v[mask] * r[mask] ** bm))


def _pde_residual_norm(profile: SolutionProfile,
                       problem: EuclideanProblem) -> float:
    """Relative sup of the strong-form residual, recomputed by finite
    differences from the stored samples (independent of the integrator)."""
    params = profile.params
    n, gamma, s = params.n, params.gamma, params.s
    q = critical_exponent(n, s)
    d = profile.data
    t = np.log(d.r)
    vt = log_derivative_matrix_apply(t, d.v)
    vtt = log_derivative_matrix_apply(t, vt)
    r = d.r
    lap = (vtt + (n - 2.0) * vt) / r ** 2
    res = (-lap - (gamma / r ** 2 + problem.h0) * d.v
           - problem.b(r) * np.abs(d.v) ** (q - 2.0 - params.p_defect)
           * d.v / r ** s)
    scale = np.max(np.abs(lap)) + 1e-300
    # skip a few nodes at each end (one-sided stencils)
    return float(np.max(np.abs(res[4:-4])) / scale)


def _scaling_estimate(problem: EuclideanProblem, p: float,
                      r0: float) -> float:
    """The K at which b(r0) v^{q-2-p} r^{2-s} balances (n-2)^2/4 - gamma
    at r = R/2, for v = K r^{beta_-}: amp^{1/(q-2-p)} (R/2)^{beta_-}."""
    params = problem.params
    n, s, r = params.n, params.s, 0.5 * problem.domain_radius
    amp = ((n - 2.0) ** 2 / 4.0 - params.gamma) / (float(problem.b(r0))
                                                   * r ** (2.0 - s))
    return (amp ** (1.0 / check_defect(n, s, p))
            * r ** beta_pm(n, params.gamma)[0])


def solve_dirichlet_shooting(problem: EuclideanProblem, p: float,
                             node_target: int = 0,
                             K_range: tuple = (1e-4, 1e6),
                             boundary_tol: float = 1e-8,
                             r0: float = None,
                             rtol: float = 1e-11,
                             K_start: float = None) -> SolutionProfile:
    """Find K > 0 with v(R) = 0 and node_target interior sign changes.

    A ground state needs a coercive form [Brezis-Nirenberg 1983]: with
    node_target = 0, a pencil eigenvalue below -1e-3 raises NotCoercive.
    The node count, boundary sample included, rises with K and jumps when a
    zero crosses R.  Steps of 10^{1/6}, 10^{2/6}, 10^{4/6}, ... walk out
    from K_start, or from the scaling estimate (the K at which
    b v^{q-2-p} r^{2-s} balances (n-2)^2/4 - gamma at r = R/2), both
    clamped into K_range, until the count crosses node_target (a
    continuation starts where the scaling law's residual extrapolates).
    The bracket is bisected until its ends read node_target and
    node_target + 1; Brent's method [Brent 1973] then finds the root of
    v(R)/sup|v| in log K, stopping at the first shoot within half of
    boundary_tol, so that its root passes the profile's check.  Shoots are
    read at their step ends: the walk and bisection shoot at a loose rtol
    (at rtol again inside the redo band), Brent at rtol.  The profile
    samples the root's trajectory (a solve's one dense output).  meta counts
    the shoots per phase, the loose ones, their RHS evaluations and steps."""
    check_defect(problem.params.n, problem.params.s, p)
    if node_target == 0 and not problem.coercive():
        raise NotCoercive("the quadratic form is not coercive "
                          "(Lambda0 < -1e-3): no positive solution")
    r0 = _start_radius(problem, r0)
    x_min, x_max = math.log(K_range[0]), math.log(K_range[1])
    # log K -> (K, node count, v(R)/sup|v|, integration, rtol) of each K
    # shot, at its step ends; runs: (rtol, integration) of every integration
    seen, runs = {}, []

    def shoot_at(x, tol=max(rtol, _BRACKET_RTOL)):
        K = math.exp(x)
        prof = shoot(problem, K, p, r0=r0, num=None, rtol=tol)
        runs.append((tol, prof.trajectory))
        v = prof.data.v
        sup = np.max(np.abs(v))
        vR = v[-1] / sup
        if tol > rtol and abs(vR) <= _REDO_BAND:
            return shoot_at(x, rtol)
        # within half the profile's own bound v(R)/sup reads 0: Brent stops
        seen[x] = (K, _sign_changes(v, sup),
                   0.0 if abs(vR) <= max(1e-13, 0.5 * boundary_tol) else vR,
                   prof.trajectory, tol)
        return seen[x][1]

    def no_bracket(message):
        return BracketNotFound(
            message, node_counts={K: nc for K, nc, *_ in seen.values()},
            shoots=len(runs))

    if K_start is None:
        K_start = _scaling_estimate(problem, p, r0)
    x = min(max(math.log(K_start), x_min), x_max)
    up = shoot_at(x) <= node_target
    step = (1.0 if up else -1.0) * math.log(10.0) / 6.0
    while True:
        nxt = min(max(x + step, x_min), x_max)
        if nxt == x:
            raise no_bracket(f"no node-count transition through {node_target}"
                             f" from K = {K_start:.6g} within the range")
        if (shoot_at(nxt) > node_target) == up:
            break
        x, step = nxt, 2.0 * step
    walk = len(runs)
    x_lo, x_hi = sorted((x, nxt))
    while not (seen[x_lo][1] == node_target
               and seen[x_hi][1] == node_target + 1):
        mid = 0.5 * (x_lo + x_hi)
        if not x_lo < mid < x_hi:
            raise no_bracket(f"the node count jumps past {node_target} + 1 "
                             f"at K = {seen[x_hi][0]:.6g}")
        x_lo, x_hi = ((x_lo, mid) if shoot_at(mid) > node_target
                      else (mid, x_hi))

    def boundary(x):
        if x not in seen:
            shoot_at(x, rtol)
        return seen[x][2]

    bisect = len(runs) - walk
    x_root = _brent(boundary, x_lo, x_hi, xtol=1e-12)
    if seen[x_root][4] > rtol:   # the profile is sampled from a tight shoot
        shoot_at(x_root, rtol)
    K_root = math.exp(x_root)
    best = _sampled(seen[x_root][3], problem, K_root, p, r0, 3000)
    shoots = len(runs)
    sup = np.max(np.abs(best.data.v))
    if abs(best.data.v[-1]) > boundary_tol * sup:
        raise SolverError(
            f"boundary value {best.data.v[-1]:.3e} above tolerance "
            f"{boundary_tol:g} * sup {sup:.3e}", shoots=shoots)
    nodes = best.data.node_count()
    if nodes != node_target:
        raise SolverError(f"root at K = {K_root:.6g} has {nodes} nodes, "
                          f"not {node_target}", shoots=shoots)
    best.energy, best.nonlinear_mass = euclidean_energy(best, problem)
    best.K0 = fit_K0(best)
    best.residual_norm = _pde_residual_norm(best, problem)
    best.meta.update(rhs_evals=sum(sol.nfev for _, sol in runs),
                     steps=sum(sol.steps for _, sol in runs),
                     rejected_steps=sum(sol.rejected for _, sol in runs),
                     K_shoot=K_root, boundary_tol=boundary_tol,
                     shoots=shoots, shoots_walk=walk, shoots_bisect=bisect,
                     shoots_brent=shoots - walk - bisect,
                     shoots_loose=sum(tol > rtol for tol, _ in runs))
    return best


def solve_variational(problem: EuclideanProblem, p: float, r0: float = None,
                      num: int = 1600) -> SolutionProfile:
    """Ground state as a critical point of the action discretized on the
    tridiagonal form A of bridge._quadratic_form_diagonals: _DESCENT_STEPS
    Nehari-projected descent steps preconditioned by A [Choi & McKenna
    1993] from a positive bump, then Newton on A u = w |u|^{pf-2} u to
    max|du| <= 1e-12 max|u|, or to a step below 1e-9 max|u| that is not
    half the one before (the round-off floor), both solved by
    grids.thomas_solve.  Raises NotConverged after _NEWTON_STEPS steps,
    SolverError for a noded root."""
    n, s = problem.params.n, problem.params.s
    check_defect(n, s, p)
    pf = critical_exponent(n, s) - p
    R = problem.domain_radius
    r0 = _start_radius(problem, r0)
    form, _, off = _quadratic_form_diagonals(problem, r0, num)
    t = np.linspace(math.log(r0), math.log(R), num)
    r = np.exp(t)
    # the power term's weight, lumped at the nodes but the Dirichlet end
    w_nl = (t[1] - t[0]) * problem.b(r[:-1]) * r[:-1] ** (n - s)
    w_nl[0] *= 0.5
    omega = sphere_area(n)

    def A(u):
        return _tridiagonal_product(form, off, u)

    def solve(diag, rhs):
        return np.array(thomas_solve(off.tolist(), diag.tolist(),
                                     off.tolist(), rhs.tolist()))

    def B(u):
        return float(w_nl @ np.abs(u) ** pf)

    def project(u):
        qa = float(u @ A(u))
        bb = B(u)
        if bb <= 0 or qa <= 0:
            raise SolverError("degenerate iterate on the constraint set")
        return (qa / bb) ** (1.0 / (pf - 2.0)) * u

    def energy(u):
        return omega * (0.5 * float(u @ A(u)) - B(u) / pf)

    u = project(np.exp(-((t[:-1] - math.log(0.3 * R)) / 0.8) ** 2))
    e = energy(u)
    step = 1.0
    for _ in range(_DESCENT_STEPS):
        # the gradient in the energy inner product of A, which cures the
        # stiffness of the raw Euclidean gradient
        g = solve(form, A(u) - w_nl * np.abs(u) ** (pf - 2.0) * u)
        trial_step = step * 2.0
        while True:
            cand = project(u - trial_step * g)
            e_cand = energy(cand)
            if e_cand < e - 1e-14 * abs(e) or trial_step < 1e-14:
                break
            trial_step *= 0.5
        if trial_step < 1e-14:
            break
        u, e, step = cand, e_cand, trial_step
    change = math.inf
    for newton in range(1, _NEWTON_STEPS + 1):
        power = w_nl * np.abs(u) ** (pf - 2.0)
        du = solve(form - (pf - 1.0) * power, A(u) - power * u)
        u = u - du
        last, change = change, float(np.max(np.abs(du)) / np.max(np.abs(u)))
        # past 1e-9 a converging step shrinks quadratically, to far below
        # round-off; one that does not halve measures the round-off floor,
        # which rises above 1e-12 on fine grids
        if change <= 1e-12 or (change <= 1e-9 and change > 0.5 * last):
            break
    else:
        raise NotConverged(f"variational Newton: max|du| = {change:.3e} "
                           f"max|u| after {_NEWTON_STEPS} steps")
    v = np.concatenate([u, [0.0]])
    dv = log_derivative_matrix_apply(t, v) / r
    prof = SolutionProfile(
        data=ProfileData(r=r, v=v, dv=dv),
        params=replace(problem.params, p_defect=p), K0=0.0,
        energy=energy(u), residual_norm=math.nan,
        meta={"newton_steps": newton, "newton_change": change,
              "converged": True})
    if prof.data.node_count() != 0:
        raise SolverError(f"variational root has {prof.data.node_count()} "
                          "nodes")
    prof.K0 = fit_K0(prof)
    return prof


def continuation_to_critical(problem: EuclideanProblem,
                             schedule: ContinuationSchedule, solve) -> list:
    """Warm-started solves along the decreasing defect schedule; records the
    Cauchy increments and the weighted sup norms used by the blow-up lab.
    solve(p, K_start) is a step's shooting solve (from the scaling
    estimate for K_start None, the first step's), whose meta gives K_shoot
    and r0.  A later step starts at the scaling estimate E(p) at the last
    r0, times exp(g), g the residual log K_root - log E of the last two
    roots, extrapolated linearly in p."""
    out, fits = [], []  # fits: (p, log K_root - log E(p)) of each step
    for idx, p in enumerate(schedule.p_values):
        K_start = None
        if fits:
            (pa, ga), (pb, gb) = fits[-2:] if len(fits) > 1 else fits * 2
            g = gb if pa == pb else gb + (gb - ga) * (p - pb) / (pb - pa)
            K_start = (_scaling_estimate(problem, p, out[-1].meta["r0"])
                       * math.exp(g))
        try:
            prof = solve(p, K_start)
        except SolverError as exc:
            for sp in out:
                sp.meta["truncated_at"] = idx
                sp.meta["failure"] = str(exc)
            return out
        estimate = _scaling_estimate(problem, p, prof.meta["r0"])
        fits.append((p, math.log(prof.meta["K_shoot"]) - math.log(estimate)))
        prof.meta["weighted_sup"] = float(np.max(weighted_profile(prof)))
        prof.meta["h1_norm_sq"] = dirichlet_norm_sq(prof)
        prof.meta["nonlinear_mass"] = prof.nonlinear_mass
        if out:
            prof.meta["sup_increment"] = _sup_diff(out[-1], prof)
        out.append(prof)
    return out


def _sup_diff(a: SolutionProfile, b: SolutionProfile) -> float:
    """Largest |a - b| over their shared radii, relative to the larger sup
    of the two: every step of a continuation samples the same grid."""
    if not np.array_equal(a.data.r, b.data.r):
        raise GridError("sup increment needs profiles on the same radii")
    return float(np.max(np.abs(a.data.v - b.data.v))
                 / max(np.max(np.abs(a.data.v)), np.max(np.abs(b.data.v))))


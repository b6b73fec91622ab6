"""Radial solvers for the flat singular Dirichlet problem: outward shooting
with a singular-endpoint jet, nodal targeting, a variational cross-check,
and subcritical continuation."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import replace

import numpy as np

from .bridge import (EuclideanProblem, _quadratic_form_diagonals,
                     _tridiagonal_product)
from .constants import beta_pm, check_defect, critical_exponent
from .grids import (GridError, ProfileData, _sign_changes,
                    log_derivative_matrix_apply, spline_integral,
                    thomas_solve)
from .kernel import sphere_area
from .ode import _brent, _dop853, _Trajectory
# the records and errors, re-exported for the solver's callers
from .profiles import (BracketNotFound, NotCoercive,  # noqa: F401
                       NotConverged, SolutionProfile, SolverError)

# solve_variational's fixed count of projected descent steps, and its cap
# on the Newton steps that follow them
_DESCENT_STEPS = 20
_NEWTON_STEPS = 20
# the walk reads only the sign of the phase f: it shoots at a loose rtol, and
# again at the solve's if |f| lies within the band (radians), 21x the loose
# shoots' largest phase error over 120 shoots near the roots of k = 0 and 1
_BRACKET_RTOL, _REDO_BAND = 1e-6, 1e-4


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
    a1 = -problem.h0 / denom    # = 4 (1 + sqrt((n-2)^2/4 - gamma)) >= 4
    v = K * r0 ** sigma * (1.0 + a1 * r0 ** 2)
    dv = K * (sigma * r0 ** (sigma - 1.0) + a1 * (sigma + 2.0) * r0 ** (sigma + 1.0))
    return v, dv


def _rhs_factory(problem: EuclideanProblem, p: float):
    """ODE in log radius t: v_tt = -(n-2) v_t - (gamma + h0 r^2) v - b |v|^{q-2-p} v r^{2-s},
    with problem.b's evaluation of its table inline at t = log r, keeping
    the current piece (its bounds, left knot and coefficients) until t
    leaves it."""
    params = problem.params
    n, gamma, s = params.n, params.gamma, params.s
    q = critical_exponent(n, s)
    expo = q - 2.0 - p
    nm2, r_expo = n - 2.0, 2.0 - s
    h0 = problem.h0
    exp = math.exp
    knots, c0, c1, c2, c3 = problem.b_table()
    inner = len(knots) - 1
    lo = hi = x0 = a0 = a1 = a2 = a3 = math.nan

    def rhs(t, v, vt):
        nonlocal lo, hi, x0, a0, a1, a2, a3
        r = exp(t)
        if not lo <= t < hi:
            i = bisect_right(knots, t, 1, inner) - 1
            lo = knots[i] if i > 0 else -math.inf
            hi = knots[i + 1] if i < inner - 1 else math.inf
            x0, a0, a1, a2, a3 = knots[i], c0[i], c1[i], c2[i], c3[i]
        d = t - x0
        d2 = d * d
        b = a3 + a2 * d + a1 * d2 + a0 * (d2 * d)
        return (vt, -nm2 * vt - (gamma + h0 * r * r) * v
                - b * abs(v) ** expo * v * r ** r_expo)

    return rhs


def shoot(problem: EuclideanProblem, K: float, p: float, r0: float = None,
          rtol: float = 1e-11, atol_scale: float = 1e-13) -> _Trajectory:
    """Integrate the radial equation outward from the singular-end jet and
    return the (un-matched) integration: its step ends, its counters of
    right-hand side evaluations and of accepted and rejected steps, and its
    dense output."""
    r0 = _start_radius(problem, r0)
    v0, dv0 = frobenius_init(problem, K, r0)
    # v_t = r v'
    return _dop853(_rhs_factory(problem, p), math.log(r0),
                   math.log(problem.domain_radius), v0, dv0 * r0, rtol=rtol,
                   atol=atol_scale * max(abs(v0), abs(K)),
                   guard=1e12 * max(abs(K), abs(v0), 1.0))


def _sampled(sol: _Trajectory, problem: EuclideanProblem, K: float, p: float,
             r0: float, num: int) -> SolutionProfile:
    """The shoot of K whose integration is sol, sampled at num log-uniform
    radii from r0 to where the integration ended."""
    t = np.linspace(math.log(r0), sol.t_end, num)
    v, vt = sol(t)
    r = np.exp(t)
    return SolutionProfile(
        data=ProfileData(r=r, v=v, dv=vt / r),
        params=replace(problem.params, p_defect=p), K0=K, energy=math.nan,
        residual_norm=math.nan, meta={"r0": r0})


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


def _prufer_phase(v: np.ndarray, vt: np.ndarray) -> float:
    """The Prufer angle theta of (v, v_t) = rho (sin theta, cos theta)
    [Prufer, Math. Ann. 95 (1926)] at the last sample: m pi for the m sign
    changes of v[:-1] (node_count's rule), plus the angle of (s v, s v_t)
    in [0, 2 pi), s = (-1)^m.  theta' = 1 at a zero of v, so theta(R)
    passes each multiple of pi as a zero enters at R."""
    m = _sign_changes(v[:-1], np.max(np.abs(v)))
    s = -1.0 if m % 2 else 1.0
    return m * math.pi + math.atan2(s * v[-1], s * vt[-1]) % (2.0 * math.pi)


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
    The root is the zero of f = theta(R) - (node_target + 1) pi in log K,
    theta the Prufer phase, which rises with K and stays continuous where
    the node count jumps.  Steps of 10^{1/6}, 10^{2/6}, 10^{4/6}, ... walk
    out from K_start, or from the scaling estimate (the K at which
    b v^{q-2-p} r^{2-s} balances (n-2)^2/4 - gamma at r = R/2), both
    clamped into K_range, until f changes sign (a continuation starts
    where the scaling law's residual extrapolates); a start that reads
    f = 0 is the root, with no walk and no Brent.  Brent's method
    [Brent 1973] then runs on f, which reads 0 within half of boundary_tol
    in v(R)/sup|v|, and the root is the tight shoot of least |f|, so that
    it passes the profile's check.  Shoots are read at their step ends:
    the walk shoots at a loose rtol (at rtol again inside the redo band),
    Brent at rtol.  The profile samples the root's integration (a solve's
    one dense output).  meta counts the shoots per phase, the loose ones,
    their RHS evaluations and steps, and holds the nonlinear mass."""
    check_defect(problem.params.n, problem.params.s, p)
    if node_target == 0 and not problem.coercive():
        raise NotCoercive("the quadratic form is not coercive "
                          "(Lambda0 < -1e-3): no positive solution")
    r0 = _start_radius(problem, r0)
    x_min, x_max = math.log(K_range[0]), math.log(K_range[1])
    # f reads 0 within half the profile's own bound on v(R)/sup: Brent stops
    stop, target = max(1e-13, 0.5 * boundary_tol), (node_target + 1) * math.pi
    # the ledger: (log K, rtol, f, integration) of every shoot, in order
    shots = []

    def phase_at(x, tol=max(rtol, _BRACKET_RTOL)):
        sol = shoot(problem, math.exp(x), p, r0=r0, rtol=tol)
        v = sol.v_ends
        f = (0.0 if abs(v[-1] / np.max(np.abs(v))) <= stop else
             _prufer_phase(v, sol.w_ends) - target)
        shots.append((x, tol, f, sol))
        if tol > rtol and abs(f) <= _REDO_BAND:
            return phase_at(x, rtol)
        return f

    if K_start is None:
        K_start = _scaling_estimate(problem, p, r0)
    x = x_start = min(max(math.log(K_start), x_min), x_max)
    f = phase_at(x)
    step = math.copysign(math.log(10.0) / 6.0, -f)
    while f != 0.0:     # a start that reads 0 is the root: no walk, no Brent
        nxt = min(max(x + step, x_min), x_max)
        if nxt == x:
            raise BracketNotFound(
                f"no sign change of theta(R) - {node_target + 1} pi from K = "
                f"{math.exp(x_start):.6g} within the range", shoots=len(shots))
        if (phase_at(nxt) > 0.0) != (f > 0.0):
            break
        x, step = nxt, 2.0 * step
    walk = len(shots)
    if f != 0.0:    # Brent's f: the last shoot of x, or a new one at rtol
        _brent(lambda y: ([g for xs, _, g, _ in shots if xs == y]
                          or [phase_at(y, rtol)])[-1],
               *sorted((x, nxt)), xtol=1e-12)
    # integration noise in v(R)/sup can exceed the stop, and Brent's bracket
    # then closes on an iterate that is not the best one
    x_root, _, _, sol = min((shot for shot in shots if shot[1] == rtol),
                            key=lambda shot: abs(shot[2]))
    K_root = math.exp(x_root)
    best = _sampled(sol, problem, K_root, p, r0, 3000)
    sup = np.max(np.abs(best.data.v))
    if abs(best.data.v[-1]) > boundary_tol * sup:
        raise SolverError(
            f"boundary value {best.data.v[-1]:.3e} above tolerance "
            f"{boundary_tol:g} * sup {sup:.3e}", shoots=len(shots))
    nodes = best.data.node_count()
    if nodes != node_target:
        raise SolverError(f"root at K = {K_root:.6g} has {nodes} nodes, "
                          f"not {node_target}", shoots=len(shots))
    best.energy, mass = euclidean_energy(best, problem)
    best.K0 = fit_K0(best)
    best.residual_norm = _pde_residual_norm(best, problem)
    best.meta.update(rhs_evals=sum(shot[3].nfev for shot in shots),
                     steps=sum(shot[3].steps for shot in shots),
                     rejected_steps=sum(shot[3].rejected for shot in shots),
                     K_shoot=K_root, boundary_tol=boundary_tol,
                     nonlinear_mass=mass, shoots=len(shots),
                     shoots_walk=walk, shoots_brent=len(shots) - walk,
                     shoots_loose=sum(tol > rtol for _, tol, _, _ in shots))
    return best


def solve_variational(problem: EuclideanProblem, p: float,
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
    r0 = _start_radius(problem, None)
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


def continuation_to_critical(problem: EuclideanProblem, schedule: tuple,
                             solve) -> tuple:
    """Warm-started solves along schedule, a decreasing tuple of defects
    (the rule of the config's solver.schedule checks the order); records
    the Cauchy increments that the blow-up lab reads.
    solve(p, K_start) is a step's shooting solve (from the scaling
    estimate for K_start None, the first step's), whose meta gives K_shoot
    and r0.  A later step starts at the scaling estimate E(p) at the last
    r0, times exp(g), g the residual log K_root - log E of the last two
    roots, extrapolated linearly in p.  Returns the profiles solved and
    the message of the SolverError that stopped a later step (None when
    every step solved); the first step's error is raised."""
    out, fits = [], []  # fits: (p, log K_root - log E(p)) of each step
    for p in schedule:
        K_start = None
        if fits:
            (pa, ga), (pb, gb) = fits[-2:] if len(fits) > 1 else fits * 2
            g = gb if pa == pb else gb + (gb - ga) * (p - pb) / (pb - pa)
            K_start = (_scaling_estimate(problem, p, out[-1].meta["r0"])
                       * math.exp(g))
        try:
            prof = solve(p, K_start)
        except SolverError as exc:
            if not out:
                raise
            return out, str(exc)
        estimate = _scaling_estimate(problem, p, prof.meta["r0"])
        fits.append((p, math.log(prof.meta["K_shoot"]) - math.log(estimate)))
        if out:
            prof.meta["sup_increment"] = _sup_diff(out[-1], prof)
        out.append(prof)
    return out, None


def _sup_diff(a: SolutionProfile, b: SolutionProfile) -> float:
    """Largest |a - b| over their shared radii, relative to the larger sup
    of the two: every step of a continuation samples the same grid."""
    if not np.array_equal(a.data.r, b.data.r):
        raise GridError("sup increment needs profiles on the same radii")
    return float(np.max(np.abs(a.data.v - b.data.v))
                 / max(np.max(np.abs(a.data.v)), np.max(np.abs(b.data.v))))


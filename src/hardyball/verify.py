"""Identity and inequality audits: Pohozaev balance on annuli, the
hyperbolic Hardy and Hardy-Sobolev inequalities, and asymptotic exponent
extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bridge import EuclideanProblem
from .constants import beta_pm, critical_exponent
from .grids import (CubicSpline, ProfileData, log_derivative_matrix_apply,
                    spline_integral)
from .kernel import (_gradient_weight, _panel_rule, _panel_sum, green_G,
                     green_G_inverse, hyperbolic_dirichlet_energy,
                     hyperbolic_integral, sphere_area, weight_V_p)
from .profiles import SolutionProfile


class VerificationError(RuntimeError):
    pass


@dataclass
class PohozaevBreakdown:
    """Term-by-term balance of the annulus identity; for a converged
    solution the total vanishes at the discretization order.  (The
    base-point offset terms of the off-center identity vanish identically
    for radial profiles, so they are not carried.)"""

    h_term: float
    p_defect_term: float
    grad_b_term: float
    flux_outer: float
    flux_inner: float
    total: float
    relative: float


def _flux(rho: float, u: float, du: float, problem: EuclideanProblem,
          pf: float) -> tuple:
    """Surface integral of the momentum flux density over the sphere of
    radius rho, outward normal (radial reduction), and the same integral
    of the absolute values of its terms: a cancellation-free magnitude
    used to normalize the residual (for the entire-space profile the flux
    itself vanishes identically)."""
    params = problem.params
    n, gamma, s = params.n, params.gamma, params.s
    b = float(problem.b(rho))
    kinetic = 0.5 * du * du
    hardy = 0.5 * gamma * u * u / rho ** 2
    potential = 0.5 * problem.h0 * u * u
    nonlinear = b * abs(u) ** pf / (pf * rho ** s)
    virial = rho * du + 0.5 * (n - 2.0) * u
    density = rho * (kinetic - hardy - potential - nonlinear) - virial * du
    mag = (rho * (kinetic + abs(hardy) + abs(potential) + abs(nonlinear))
           + abs(virial) * abs(du))
    weight = sphere_area(n) * rho ** (n - 1.0)
    return weight * density, weight * mag


def pohozaev_residual(v: SolutionProfile, problem: EuclideanProblem,
                      annulus: tuple) -> PohozaevBreakdown:
    """Evaluate every term of the annulus momentum identity for a radial
    profile and return the breakdown.

    The annulus endpoints are snapped to the nearest grid nodes so that
    every term is built from exact samples (the identity holds on any
    annulus); the relative residual is normalized by the largest
    cancellation-free term magnitude.  Both fluxes are read from the
    samples."""
    a, b_out = annulus
    params = v.params
    n, s = params.n, params.s
    q = critical_exponent(n, s)
    pf = q - params.p_defect
    d = v.data
    if not (0.0 < a < b_out):
        raise VerificationError("annulus must satisfy 0 < a < b")
    if a < d.r[0] * (1.0 - 1e-12) or b_out > d.r[-1] * (1.0 + 1e-12):
        raise VerificationError("annulus outside the stored grid")
    omega = sphere_area(n)
    t_all = np.log(d.r)
    ia = int(np.argmin(np.abs(t_all - math.log(a))))
    ib = int(np.argmin(np.abs(t_all - math.log(b_out))))
    if ib - ia < 8:
        raise VerificationError("annulus spans too few grid nodes")
    a, b_out = float(d.r[ia]), float(d.r[ib])
    sel = slice(ia, ib + 1)
    r = d.r[sel]
    t = t_all[sel]
    u = d.v[sel]
    du = d.dv[sel]

    def vol(vals):
        return omega * spline_integral(t, vals * r ** float(n))

    b_vals = np.asarray(problem.b(r), dtype=float)
    bs_vals = np.asarray(problem.b_radial_slope(r), dtype=float)
    p = params.p_defect
    h_term = -vol(problem.h0 * u ** 2)
    p_defect_term = -(p / q) * ((n - s) / pf) * vol(
        b_vals * np.abs(u) ** pf / r ** s)
    grad_b_term = -(1.0 / pf) * vol(bs_vals * r * np.abs(u) ** pf / r ** s)

    flux_inner, mag_inner = _flux(a, float(u[0]), float(du[0]), problem, pf)
    flux_outer, mag_outer = _flux(b_out, float(u[-1]), float(du[-1]),
                                  problem, pf)

    volume = h_term + p_defect_term + grad_b_term
    boundary = flux_outer - flux_inner
    total = volume - boundary
    scale = max(abs(h_term), abs(p_defect_term), abs(grad_b_term),
                mag_inner, mag_outer, 1e-300)
    return PohozaevBreakdown(
        h_term=h_term, p_defect_term=p_defect_term, grad_b_term=grad_b_term,
        flux_outer=flux_outer, flux_inner=flux_inner, total=total,
        relative=abs(total) / scale)


def hardy_constant(n: int) -> float:
    """Sharp constant (n-2)^2/4 of the hyperbolic Hardy inequality."""
    return (n - 2.0) ** 2 / 4.0


def hardy_check(us: list, n: int) -> list:
    """Relative margins of the hyperbolic Hardy inequality for profiles
    sampled at the same radii: gradient energy minus the sharp multiple of
    the singular mass, over the gradient energy; non-negative up to
    quadrature error for every admissible profile (0 for the zero
    profile).  The integrals are hyperbolic_dirichlet_energy's and
    hyperbolic_integral's, all on one panel rule of the shared knots."""
    t = np.log(us[0].r)
    if any(not np.array_equal(u.r, us[0].r) for u in us):
        raise VerificationError("hardy_check needs profiles on one grid")
    rule = _panel_rule(t, n)
    r = rule[3]
    w_energy, w_mass = _gradient_weight(r, 2.0), weight_V_p(r, n, 2.0)
    margins = []
    for u in us:
        if np.max(np.abs(u.v)) == 0.0:
            margins.append(0.0)
            continue
        du_dt = CubicSpline(t, log_derivative_matrix_apply(t, u.v))
        energy = _panel_sum(du_dt, rule, 2.0, n, w_energy)
        mass = _panel_sum(u.spline(), rule, 2.0, n, w_mass)
        margins.append((energy - hardy_constant(n) * mass) / energy)
    return margins


def hardy_sharpness_error(n: int) -> float:
    """Largest |margin (1 + w^2/4) - 1| of hardy_check over the
    near-extremal profiles u = G^{1/2} exp(-(ln(G/G_c)/w)^2), w = 2, 4, 6.

    The ground-state substitution u = G^{1/2} phi(ln G) makes
    G |grad_B ln G|^2 dvol uniform in ln G, so the exact relative margin
    is 1/(1 + w^2/4) for every n: it falls to 0.1 at w = 6, where a
    constant 5 % too large reads 0.055.  The 600-node log grid runs
    inward from r = 0.99 until ln G has risen by 58 (its rise over
    [1e-6, 0.99] at n = 5), with ln G_c at the midpoint, so for every n
    each profile has decayed to 1.5e-5 of its peak or less at both ends."""
    R = 0.99
    r0 = green_G_inverse(green_G(R, n) * math.exp(58.0), n)
    r = np.geomspace(r0, R, 600)
    log_g = np.log(green_G(r, n))
    s = log_g - 0.5 * (log_g[0] + log_g[-1])
    widths = (2.0, 4.0, 6.0)
    margins = hardy_check([ProfileData(r, np.exp(0.5 * s - (s / w) ** 2))
                           for w in widths], n)
    return max(0.0, *(abs(margin * (1.0 + w * w / 4.0) - 1.0)
                      for w, margin in zip(widths, margins)))


def hardy_sobolev_check(u: ProfileData, n: int, s: float,
                        gamma: float) -> float:
    """Sample quotient of the hyperbolic Hardy-Sobolev inequality:
    (gradient energy - gamma * singular mass) over the critical norm.
    Positivity across a family witnesses a positive constant."""
    if gamma >= hardy_constant(n):
        raise VerificationError("gamma above the Hardy threshold")
    q = critical_exponent(n, s)
    denom = hyperbolic_integral(lambda r: weight_V_p(r, n, q), u, q, n)
    if denom <= 0.0:
        raise VerificationError("degenerate profile: zero critical norm")
    num = (hyperbolic_dirichlet_energy(u, n)
           - gamma * hyperbolic_integral(
               lambda r: weight_V_p(r, n, 2.0), u, 2.0, n))
    return num / denom ** (2.0 / q)


def asymptotic_exponent(v: SolutionProfile, window: tuple) -> tuple:
    """Least-squares slope of log |v| against log r over the window, with
    its standard error; converged profiles give -beta_-."""
    r1, r2 = window
    r = v.data.r
    mask = (r >= r1) & (r <= r2)
    if np.count_nonzero(mask) < 4:
        raise VerificationError("window contains too few grid nodes")
    vals = v.data.v[mask]
    if np.any(vals == 0.0) or np.any(np.sign(vals) != np.sign(vals[0])):
        raise VerificationError("sign change inside the fit window")
    y = np.log(np.abs(vals))
    x = np.log(r[mask])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    dof = max(len(x) - 2, 1)
    var = (res[0] / dof if len(res) else 0.0)
    cov = var * np.linalg.inv(A.T @ A)[0, 0]
    return float(coef[0]), float(math.sqrt(max(cov, 0.0)))


def audit_profile(v: SolutionProfile, problem: EuclideanProblem,
                  annulus: tuple, window: tuple) -> tuple:
    """(Pohozaev breakdown, slope, its standard error, target -beta_-,
    checks) of a solved profile: the balance on the annulus, (1e-3 R, R)
    if None, and the slope of log |v| on the window, (10 r0, 100 r0) if
    None, r0 its first radius.  A window the fit cannot use (too few
    nodes, a sign change) gives a NaN slope; an annulus off the grid
    raises VerificationError.  checks holds the (name, value, tolerance)
    of the two audits, each passed when |value| <= tolerance, so a NaN
    slope fails."""
    R, r0 = problem.domain_radius, v.data.r[0]
    po = pohozaev_residual(v, problem, annulus or (1e-3 * R, R))
    try:
        slope, stderr = asymptotic_exponent(v, window
                                            or (r0 * 10.0, r0 * 100.0))
    except VerificationError:
        slope = stderr = math.nan
    target = -beta_pm(v.params.n, v.params.gamma)[0]
    return po, slope, stderr, target, [
        ("pohozaev_relative_residual", po.relative, 1e-4),
        ("asymptotic_slope_error", slope - target,
         0.02 * abs(target) + 2.0 * stderr)]


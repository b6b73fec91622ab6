"""Closed-form exponents, admissibility predicates, and the variational
best-constant estimate for the singular quotient on R^n."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar


class AdmissibilityError(ValueError):
    pass


@dataclass(frozen=True)
class ProblemParams:
    n: int
    s: float
    gamma: float
    lam: float = 0.0
    theta: float = 0.0
    c: float = 1.0
    p_defect: float = 0.0

    def __post_init__(self):
        if self.n < 3:
            raise AdmissibilityError("dimension must be >= 3")
        if not (0.0 < self.s < 2.0):
            raise AdmissibilityError("s must lie in (0, 2)")
        if not (0.0 <= self.theta < 2.0):
            raise AdmissibilityError("theta must lie in [0, 2)")
        check_defect(self.n, self.s, self.p_defect)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ExponentSet:
    beta_minus: float
    beta_plus: float
    alpha_minus: float
    two_star_s: float

    @property
    def tau_range(self) -> tuple:
        n_minus_2 = self.beta_minus + self.beta_plus
        return (self.beta_minus, n_minus_2 / 2.0)

    def tau_default(self) -> float:
        a, b = self.tau_range
        return 0.5 * (a + b)

    def as_dict(self) -> dict:
        d = asdict(self)
        d["tau_range"] = list(self.tau_range)
        return d


def critical_exponent(n: int, s: float) -> float:
    if n < 3 or not (0.0 <= s <= 2.0):
        raise AdmissibilityError("need n >= 3 and s in [0, 2]")
    return 2.0 * (n - s) / (n - 2.0)


def check_defect(n: int, s: float, p: float) -> float:
    """q - 2 - p; raises unless 0 <= p < q - 2, formed as 2(2 - s)/(n - 2)."""
    cap = 2.0 * (2.0 - s) / (n - 2.0)
    if not (0.0 <= p < cap):
        raise AdmissibilityError(
            f"subcritical defect must lie in [0, {cap:g})")
    return cap - p


def beta_pm(n: int, gamma: float) -> tuple:
    disc = (n - 2.0) ** 2 / 4.0 - gamma
    if disc <= 0.0:
        raise AdmissibilityError(
            "gamma must be strictly below the Hardy threshold (n-2)^2/4")
    root = math.sqrt(disc)
    half = (n - 2.0) / 2.0
    return half - root, half + root


def alpha_minus(n: int, gamma: float) -> float:
    disc = 0.25 - gamma / (n - 2.0) ** 2
    if disc < 0.0:
        raise AdmissibilityError("discriminant negative: gamma too large")
    return 0.5 - math.sqrt(disc)


def exponent_set(n: int, s: float, gamma: float) -> ExponentSet:
    bm, bp = beta_pm(n, gamma)
    return ExponentSet(beta_minus=bm, beta_plus=bp,
                       alpha_minus=alpha_minus(n, gamma),
                       two_star_s=critical_exponent(n, s))


def admissibility(params: ProblemParams) -> dict:
    """Regime report: which of the strict parameter conditions hold.

    Reports, never raises; boundary equalities count as inadmissible.
    """
    n, s = params.n, params.s
    hardy_cap = (n - 2.0) ** 2 / 4.0
    two_star_s = critical_exponent(n, s)
    lam_ok = False
    if n >= 5:
        lam_ok = params.lam > (n - 2.0) / (n - 4.0) * (
            n * (n - 4.0) / 4.0 - params.gamma)
    return {
        "hardy_subcritical": params.gamma < hardy_cap,
        "multiplicity_regime":
            params.gamma < hardy_cap - (2.0 - params.theta) ** 2,
        "lambda_threshold_met": lam_ok,
        "theta_cap_met": params.theta <= 2.0 - 2.0 / two_star_s,
        "c_positive": params.c > 0.0,
    }


def _trial_quotient(n: int, s: float, gamma: float, alpha: float,
                    rtol: float = 1e-10) -> float:
    """Rayleigh quotient of the radial trial profile
    w(r) = r^{-(n-2)/2} sech(alpha * log r)^{(n-2)/(2-s)} on R^n."""
    q = critical_exponent(n, s)
    nu = (n - 2.0) / 2.0
    m = 2.0 / (q - 2.0)  # = (n-2)/(2-s)

    # Emden-Fowler frame: w = r^{-nu} psi(log r), psi = sech(alpha t)^m;
    # both integrals reduce to 1-d integrals in t.
    def psi(t):
        return np.cosh(alpha * t) ** -m

    def dpsi(t):
        return -m * alpha * np.tanh(alpha * t) * np.cosh(alpha * t) ** -m

    T = 40.0 / max(alpha * m, 0.2)
    num1, _ = quad(lambda t: dpsi(t) ** 2, -T, T, epsrel=rtol, limit=400)
    num2, _ = quad(lambda t: psi(t) ** 2, -T, T, epsrel=rtol, limit=400)
    den, _ = quad(lambda t: psi(t) ** q, -T, T, epsrel=rtol, limit=400)
    num = num1 + (nu * nu - gamma) * num2
    from .kernel import sphere_area
    omega = sphere_area(n)
    return omega * num / (omega * den) ** (2.0 / q)


def best_constant_estimate(n: int, s: float, gamma: float) -> dict:
    """Estimate of the best constant in the weighted quotient on R^n by
    minimizing over a one-parameter family of radial trial profiles.

    The family contains the exact extremal decay rates, so the estimate
    is tight up to quadrature error for admissible (gamma, s)."""
    bm, bp = beta_pm(n, gamma)
    if not (0.0 < s < 2.0):
        raise AdmissibilityError("s must lie in (0, 2)")
    # width of the exact connecting orbit
    alpha_star = (bp - bm) / 2.0 * (2.0 - s) / (n - 2.0)
    res = minimize_scalar(
        lambda a: _trial_quotient(n, s, gamma, a),
        bracket=(0.5 * alpha_star, alpha_star, 2.0 * alpha_star),
        method="brent", options={"xtol": 1e-8})
    return {
        "value": float(res.fun),
        "alpha": float(res.x),
        "converged": bool(res.success) if res.success is not None else True,
    }


def radial_hardy_ode_residual(n: int, gamma: float, beta: float,
                              radii) -> float:
    """Max residual of r^{-beta} in the linear radial equation
    -v'' - (n-1) v'/r - gamma v / r^2 = 0, normalized per node."""
    radii = np.asarray(radii, dtype=float)
    # v = r^-beta: v'' = beta(beta+1) r^{-beta-2}, v' = -beta r^{-beta-1}
    res = (-beta * (beta + 1.0) + (n - 1.0) * beta - gamma) * radii ** (-beta - 2.0)
    scale = radii ** (-beta - 2.0) * max(1.0, abs(gamma) + beta * beta)
    return float(np.max(np.abs(res) / scale))

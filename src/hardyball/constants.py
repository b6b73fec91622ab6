"""Closed-form exponents, admissibility predicates, and the best constant
of the singular quotient on R^n over the extremal trial family."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

from .kernel import sphere_area


class AdmissibilityError(ValueError):
    pass


@dataclass(frozen=True)
class ProblemParams:
    n: int
    s: float
    gamma: float
    lam: float = 0.0
    p_defect: float = 0.0

    def __post_init__(self):
        if self.n < 3:
            raise AdmissibilityError("dimension must be >= 3")
        if not (0.0 < self.s < 2.0):
            raise AdmissibilityError("s must lie in (0, 2)")
        beta_pm(self.n, self.gamma)
        check_defect(self.n, self.s, self.p_defect)

    def as_dict(self) -> dict:
        return asdict(self)


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


def h_origin(params: ProblemParams) -> float:
    """h(0) = 4(n-2)/(n-4) gamma + 4 lam - n(n-2), the constant lower-order
    coefficient of the flat problem for n >= 5 (bridge.EuclideanProblem's
    h0); h(0) > 0 is the paper's hypothesis lam > (n-2)/(n-4)
    (n(n-4)/4 - gamma).  NaN for n = 3, 4, where h is singular at the
    origin and the flat problem is not defined."""
    n, gamma, lam = params.n, params.gamma, params.lam
    if n < 5:
        return math.nan
    return 4.0 * (n - 2.0) / (n - 4.0) * gamma + 4.0 * lam - n * (n - 2.0)


def admissibility(params: ProblemParams) -> dict:
    """Regime report: which of the strict parameter conditions hold.

    Reports, never raises; boundary equalities count as inadmissible.
    ProblemParams refuses gamma at or above the Hardy threshold, so that
    condition holds for every params and is not reported.
    """
    multiplicity_cap = (params.n - 2.0) ** 2 / 4.0 - 4.0
    return {
        "multiplicity_regime": params.gamma < multiplicity_cap,
        "lambda_threshold_met": h_origin(params) > 0.0,
    }


def _log_beta_half(x: float) -> float:
    """log B(x, 1/2) = log of the integral of sech(u)^{2x} over the line."""
    return math.lgamma(x) + math.lgamma(0.5) - math.lgamma(x + 0.5)


def best_constant_estimate(n: int, s: float, gamma: float) -> dict:
    """Best constant in the weighted quotient on R^n over the radial trial
    profiles w(r) = r^{-(n-2)/2} sech(alpha log r)^m, m = 2/(q-2), the
    family of the radial extremal [Lieb 1983; Catrina-Wang 2001].

    With a = (n-2)^2/4 - gamma and B = B(m, 1/2), the integrals in t = log r
    are Beta functions: |psi'|^2 gives m^2 alpha B / (2m+1), psi^2 gives
    B / alpha and psi^q = psi^{2m+2} gives B(m+1, 1/2) / alpha.  The
    quotient is minimal at alpha* = sqrt(a) m^{-1} = sqrt(a) (q-2)/2, where
    its numerator is m sqrt(a) B (2m+2)/(2m+1)."""
    bm, bp = beta_pm(n, gamma)
    if not (0.0 < s < 2.0):
        raise AdmissibilityError("s must lie in (0, 2)")
    q = critical_exponent(n, s)
    m = 2.0 / (q - 2.0)
    root_a = (bp - bm) / 2.0
    alpha = root_a * (2.0 - s) / (n - 2.0)
    log_num = (math.log(m * root_a * (2.0 * m + 2.0) / (2.0 * m + 1.0))
               + _log_beta_half(m))
    log_den = math.log(m / root_a) + _log_beta_half(m + 1.0)
    omega = sphere_area(n)
    value = math.exp(math.log(omega) * (1.0 - 2.0 / q) + log_num
                     - log_den * 2.0 / q)
    return {"value": value, "alpha": alpha}

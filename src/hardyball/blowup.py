"""Concentration diagnostics for the subcritical family: scale
extraction, pointwise envelope fitting, the blow-up rate formula, and the
compactness verdict."""

from __future__ import annotations

import math

import numpy as np

from .bridge import b_origin
from .constants import (ProblemParams, admissibility, beta_pm,
                        critical_exponent, h_origin)
from .grids import ProfileData
from .profiles import EntireBubble, SolutionProfile

COMPACT = "COMPACT"
BLOWUP = "BLOWUP"
INCONCLUSIVE = "INCONCLUSIVE"


class FamilyError(ValueError):
    pass


def detect_scales(u: SolutionProfile) -> list:
    """Concentration scales of a profile, as (mu, location) pairs sorted
    by increasing mu.

    Local maxima of w(r) = r^{(n-2)/2} |u|^{1 - p/(q-2)} above 1e-10 of its
    maximum and inside a quarter of the outer radius, separated by at least
    a decade, are candidate cores; each yields mu = |u(r*)|^{-2/(n-2)}.
    A candidate is kept only when its location is consistent with its own
    zoom factor (r* within a factor 10 of k = mu^{1-p/(q-2)}); together
    these distinguish a concentrating core from the broad interior maximum
    every smooth profile has."""
    n, p = u.params.n, u.params.p_defect
    q = critical_exponent(n, u.params.s)
    r = u.data.r
    w = r ** ((n - 2.0) / 2.0) * np.abs(u.data.v) ** (1.0 - p / (q - 2.0))
    floor = 1e-10 * np.max(w)
    # strict interior local maxima of the weighted profile
    r_cap = 0.25 * r[-1]
    cand = [i for i in range(1, len(w) - 1)
            if w[i] > w[i - 1] and w[i] >= w[i + 1] and w[i] > floor
            and r[i] <= r_cap]
    # greedy decade separation, strongest first
    cand.sort(key=lambda i: -w[i])
    kept = []
    for i in cand:
        if all(abs(math.log10(r[i] / r[j])) >= 1.0 for j in kept):
            kept.append(i)
    out = []
    for i in kept:
        mu = abs(u.data.v[i]) ** (-2.0 / (n - 2.0))
        k = mu ** (1.0 - p / (q - 2.0))
        if not 0.1 <= r[i] / k <= 10.0:
            continue
        out.append((float(mu), float(r[i])))
    out.sort(key=lambda pair: pair[0])
    return out


def calibrated_bubble(bubble: EntireBubble, x) -> ProfileData:
    """Representative of the bubble's scaling orbit whose value equals one
    at the maximum of the weighted profile, from the closed form at the
    radii x; with this normalization the scale read off by detect_scales
    is exactly the planted one."""
    # peak of x^{nu} |B(x)| sits at the peak amplitude psi_peak
    lam = bubble.psi_peak ** (2.0 / (bubble.n - 2.0))
    w, dw = bubble.at(x / lam)
    return ProfileData(r=x, v=w / bubble.psi_peak,
                       dv=dw / (bubble.psi_peak * lam))


def plant_bubbles(bubble: EntireBubble, scales, params: ProblemParams,
                  radii) -> SolutionProfile:
    """Synthetic superposition of calibrated bubbles at the given scales,
    zoomed for the defect of params and sampled on the given radii; used
    to validate the detectors."""
    n, p = params.n, params.p_defect
    q = critical_exponent(n, params.s)
    radii = np.asarray(radii, dtype=float)
    v = np.zeros_like(radii)
    dv = np.zeros_like(radii)
    for mu in scales:
        k = mu ** (1.0 - p / (q - 2.0))
        amp = mu ** (-(n - 2.0) / 2.0)
        cal = calibrated_bubble(bubble, radii / k)
        v += amp * cal.v
        dv += amp * cal.dv / k
    return SolutionProfile(data=ProfileData(r=radii, v=v, dv=dv),
                           params=params, K0=0.0, energy=math.nan,
                           residual_norm=math.nan,
                           meta={"synthetic_scales": [float(m) for m in scales]})


def envelope_check(u: SolutionProfile, mus) -> tuple:
    """The smallest constant C with |u| <= C * envelope on the grid, the
    two-sided envelope summed over the bubbles at the scales mus, and the
    largest ratio |u| / envelope on each decade of radii, as a list of
    (r_lo, r_hi, max_ratio)."""
    bm, bp = beta_pm(u.params.n, u.params.gamma)
    r = u.data.r
    env = np.zeros_like(r)
    for mu in mus:
        env += mu ** ((bp - bm) / 2.0) / (mu ** (bp - bm) * r ** bm + r ** bp)
    absu = np.abs(u.data.v)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(env > 0.0, absu / env,
                         np.where(absu > 0.0, math.inf, 0.0))
    worst = float(np.max(ratio))
    # per-decade breakdown
    annuli = []
    lo = math.floor(math.log10(r[0]))
    hi = math.ceil(math.log10(r[-1]))
    for d in range(lo, hi):
        mask = (r >= 10.0 ** d) & (r < 10.0 ** (d + 1))
        if not mask.any():
            continue
        band_max = float(np.max(ratio[mask]))
        annuli.append((10.0 ** d, 10.0 ** (d + 1), band_max))
    return worst, annuli


def rate_formula(params: ProblemParams, p: float, mus) -> float:
    """Closed-form limit of p / mu_N^2 predicted for a blow-up family at
    the defect p with the increasing scales mus, with h(0)
    (constants.h_origin) the lower-order coefficient and t_i = mu_i^|p|,
    clipped to [1e-300, 1]; strictly negative whenever h(0) > 0.

    Each scale carries the calibrated bubble U, whose square mass
    A = int U^2 and critical mass B = int U^q |x|^{-s} are Beta functions
    of the closed form [Catrina & Wang, CPAM 54 (2001)]: with m = 2/(q-2),
    a = (n-2)^2/4 - gamma, c = m/sqrt(a) and l = psi_peak^{2/(n-2)},
    A/B = (l^s/4) G(m+c) G(m-c) G(2m+2) / (G(2m) G(m+1)^2).  A is finite
    only for a > 1; below that U is not square integrable."""
    mus = np.asarray(mus, dtype=float)
    if len(mus) == 0:
        raise FamilyError("empty family has no rate")
    if np.any(mus <= 0.0) or np.any(np.diff(mus) <= 0.0):
        raise FamilyError("scales must be positive and increasing")
    n, s = params.n, params.s
    bm, bp = beta_pm(n, params.gamma)
    root_a = (bp - bm) / 2.0
    if root_a <= 1.0:
        raise FamilyError("the bubble is not square integrable for a <= 1")
    q = critical_exponent(n, s)
    m = 2.0 / (q - 2.0)
    c = m / root_a
    b0 = b_origin(n, s)
    # log(4 A/B), with log l = m/(n-2) log(a q / (2 b0))
    log_4ab = (s * m / (n - 2.0) * math.log(root_a ** 2 * q / (2.0 * b0))
               + math.lgamma(m + c) + math.lgamma(m - c)
               + math.lgamma(2.0 * m + 2.0) - math.lgamma(2.0 * m)
               - 2.0 * math.lgamma(m + 1.0))
    t = np.clip(mus ** abs(p), 1e-300, 1.0)
    den = b0 * t[-1] ** (n / (q - 2.0)) * np.sum(t ** (-(n - 2.0) / (q - 2.0)))
    return float(-h_origin(params) * (n - s) / (n - 2.0) ** 2
                 * math.exp(log_4ab) / den)


def rate_check(family_over_p, params: ProblemParams) -> dict:
    """Compare the measured p / mu_N^2 along a sequence of families, each a
    pair (p, increasing scales), against the closed formula, and flag the
    sign obstruction: for h(0) > 0 the formula is negative while the
    defect is nonnegative, so no blow-up family can exist in that regime.
    They match within 2 %."""
    family_over_p = list(family_over_p)
    if not family_over_p:
        return {"applicable": False,
                "reason": "no blow-up family exists (empty input)"}
    measured = []
    for p, mus in family_over_p:
        if len(mus) == 0:
            return {"applicable": False,
                    "reason": "family without scales in the sequence"}
        measured.append(float(p) / mus[-1] ** 2)
    formula = rate_formula(params, *family_over_p[-1])
    limit = measured[-1]
    gap = abs(limit - formula) / max(abs(formula), 1e-300)
    sign_contradiction = (h_origin(params) > 0.0 and formula < 0.0
                          and all(p >= 0.0 for p, _ in family_over_p))
    return {
        "applicable": True,
        "measured": measured,
        "measured_limit": limit,
        "formula": formula,
        "relative_gap": gap,
        "matches": gap <= 0.02,
        "sign_contradiction": sign_contradiction,
    }


def compactness_verdict(steps: list, params: ProblemParams) -> dict:
    """Classify a continuation run, from its steps in order (at least one,
    each a dict of p_defect, strictly decreasing, and sup_increment, a
    number after the first step, as cli reads continuation.json), as COMPACT,
    BLOWUP, or INCONCLUSIVE, by the increments per unit decrease of p
    (sup_increment over the step's drop in p_defect), which do not depend
    on how the schedule spaces p.

    COMPACT requires at least two increments per unit p, all within a
    factor 10 of the smallest; BLOWUP requires at least three, rising
    strictly and ending above 10 times the first.  Only a BLOWUP verdict
    contradicts the regime flags, whose conditions are sufficient for
    compactness, not necessary."""
    flags = admissibility(params)
    theory_compact = (flags["multiplicity_regime"]
                      and flags["lambda_threshold_met"])
    report = {"theory_compact": theory_compact, "flags": flags}
    incs = [step["sup_increment"] for step in steps[1:]]
    ps = [step["p_defect"] for step in steps]
    rates = [i / (a - b) for i, a, b in zip(incs, ps, ps[1:])]
    report.update(sup_increments=incs, increments_per_unit_p=rates)
    if len(rates) >= 2 and max(rates) <= 10.0 * min(rates):
        verdict = COMPACT
    elif (len(rates) >= 3 and np.all(np.diff(rates) > 0.0)
          and rates[-1] > 10.0 * rates[0]):
        verdict = BLOWUP
    else:
        verdict = INCONCLUSIVE
    report["verdict"] = verdict
    report["consistent_with_theory"] = not (verdict == BLOWUP
                                            and theory_compact)
    return report

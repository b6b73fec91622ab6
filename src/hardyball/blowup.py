"""Concentration diagnostics for the subcritical family: scale
extraction, pointwise envelope fitting, the blow-up rate formula, and the
compactness verdict."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bridge import b_origin
from .constants import (ProblemParams, admissibility, best_constant_estimate,
                        beta_pm, critical_exponent, h_origin)
from .grids import ProfileData, spline_integral
from .kernel import sphere_area
from .profiles import EntireBubble, SolutionProfile, weighted_profile

COMPACT = "COMPACT"
BLOWUP = "BLOWUP"
INCONCLUSIVE = "INCONCLUSIVE"


class FamilyError(ValueError):
    pass


@dataclass
class BubbleFamily:
    """A stack of concentration scales.

    mu: increasing positive scales; t_limits[i] = mu_i^p, clipped to
    [1e-300, 1], approximates lim mu_i^p, p the defect of params."""

    mu: np.ndarray
    params: ProblemParams

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        if len(self.mu) and (np.any(self.mu <= 0)
                             or np.any(np.diff(self.mu) <= 0)):
            raise FamilyError("scales must be positive and increasing")

    def __len__(self) -> int:
        return len(self.mu)

    @property
    def t_limits(self) -> np.ndarray:
        return np.clip(self.mu ** self.params.p_defect, 1e-300, 1.0)


@dataclass
class EnvelopeReport:
    worst_ratio: float           # smallest C with |u| <= C * envelope
    annuli: list                 # per-decade (r_lo, r_hi, max_ratio)


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
    w = weighted_profile(u)
    r = u.data.r
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


def calibrated_bubble(bubble: EntireBubble, x=None) -> ProfileData:
    """Representative of the bubble's scaling orbit whose value equals one
    at the maximum of the weighted profile, from the closed form at the
    radii x (by default the bubble's own samples, rescaled); with this
    normalization the scale read off by detect_scales is exactly the
    planted one."""
    # peak of x^{nu} |B(x)| sits at the peak amplitude psi_peak
    lam = bubble.psi_peak ** (2.0 / (bubble.n - 2.0))
    x = bubble.data.r * lam if x is None else np.asarray(x, dtype=float)
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


def envelope_values(r, family: BubbleFamily):
    """Pointwise value of the two-sided envelope, summed over the bubble
    stack."""
    n, gamma = family.params.n, family.params.gamma
    bm, bp = beta_pm(n, gamma)
    r = np.asarray(r, dtype=float)
    env = np.zeros_like(r)
    for mu in family.mu:
        env += mu ** ((bp - bm) / 2.0) / (mu ** (bp - bm) * r ** bm + r ** bp)
    return env


def envelope_check(u: SolutionProfile, family: BubbleFamily) -> EnvelopeReport:
    """Fit the smallest constant C with |u| <= C * envelope on the grid,
    and the largest ratio |u| / envelope on each decade of radii."""
    r = u.data.r
    env = envelope_values(r, family)
    absu = np.abs(u.data.v)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(env > 0.0, absu / env,
                         np.where(absu > 0.0, math.inf, 0.0))
    worst = float(np.max(ratio)) if len(ratio) else 0.0
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
    return EnvelopeReport(worst_ratio=worst, annuli=annuli)


def bubble_weighted_integrals(bubble_data: ProfileData, n: int,
                              s: float) -> dict:
    """Quadrature of the two bubble integrals entering the rate formula:
    the square mass and the critical singular mass."""
    q = critical_exponent(n, s)
    t = np.log(bubble_data.r)
    omega = sphere_area(n)
    sq = bubble_data.v ** 2 * bubble_data.r ** n
    crit = np.abs(bubble_data.v) ** q * bubble_data.r ** (n - s)
    return {
        "sq_mass": omega * spline_integral(t, sq),
        "crit_mass": omega * spline_integral(t, crit),
    }


def rate_formula(params: ProblemParams, family: BubbleFamily,
                 bubble_integrals: list) -> float:
    """Closed-form limit of p / mu_N^2 predicted for a blow-up family, with
    h(0) (constants.h_origin) the lower-order coefficient; strictly
    negative whenever h(0) > 0 and the integrals are positive."""
    if len(family) == 0:
        raise FamilyError("empty family has no rate")
    if len(bubble_integrals) != len(family):
        raise FamilyError("need one integral record per scale")
    n, s = params.n, params.s
    q = critical_exponent(n, s)
    b0 = b_origin(n, s)
    t = family.t_limits
    num = bubble_integrals[-1]["sq_mass"]
    den = sum(b0 / t[i] ** ((n - 2.0) / (q - 2.0))
              * bubble_integrals[i]["crit_mass"]
              for i in range(len(family)))
    if den <= 0.0:
        raise FamilyError("degenerate critical mass in the rate formula")
    return (-h_origin(params) / t[-1] ** (n / (q - 2.0))
            * 4.0 * (n - s) / (n - 2.0) ** 2 * num / den)


def rate_check(family_over_p, params: ProblemParams,
               bubble_integrals: list) -> dict:
    """Compare the measured p / mu_N^2 along a sequence of families against
    the closed formula, and flag the sign obstruction: for h(0) > 0 the
    formula is negative while the defect is nonnegative, so no blow-up
    family can exist in that regime.  They match within 2 %."""
    family_over_p = list(family_over_p)
    if not family_over_p:
        return {"applicable": False,
                "reason": "no blow-up family exists (empty input)"}
    measured = []
    for p, fam in family_over_p:
        if len(fam) == 0:
            return {"applicable": False,
                    "reason": "family without scales in the sequence"}
        measured.append(float(p) / fam.mu[-1] ** 2)
    formula = rate_formula(params, family_over_p[-1][1], bubble_integrals)
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


def scale_count_bound(params: ProblemParams, energy_budget: float) -> float:
    """Upper bound on the number of concentration scales a family with the
    given energy budget can carry, from the best-constant estimate."""
    n, s = params.n, params.s
    q = critical_exponent(n, s)
    best = best_constant_estimate(n, s, params.gamma)["value"]
    return energy_budget * (b_origin(n, s) / best) ** (q / (q - 2.0))


def compactness_verdict(steps: list, params: ProblemParams) -> dict:
    """Classify a continuation run, from its steps in order (each a dict of
    p_defect, weighted_sup, sup_increment and h1_norm_sq, as in
    continuation.json), as COMPACT, BLOWUP, or INCONCLUSIVE.

    COMPACT requires at least two increments, and both the weighted sups
    and the increments per unit decrease of p (sup_increment over the
    step's drop in p_defect) to stay within a factor 10 of their smallest,
    so that the verdict does not depend on how the schedule spaces p;
    BLOWUP requires the sups to grow monotonically past that factor.  Only
    a BLOWUP verdict contradicts the regime flags, whose conditions are
    sufficient for compactness, not necessary."""
    flags = admissibility(params)
    theory_compact = (flags["multiplicity_regime"]
                      and flags["lambda_threshold_met"])
    report = {"theory_compact": theory_compact, "flags": flags}
    if not steps:
        report.update({"verdict": INCONCLUSIVE,
                       "reason": "empty continuation"})
        return report
    sups = [step.get("weighted_sup") for step in steps]
    incs = [step.get("sup_increment") for step in steps[1:]]
    ps = [step.get("p_defect") for step in steps]
    if None in sups + incs + ps:
        report.update({"verdict": INCONCLUSIVE,
                       "reason": "missing step data"})
        return report
    rates = [i / (a - b) for i, a, b in zip(incs, ps, ps[1:])]
    report.update(weighted_sups=sups, sup_increments=incs,
                  increments_per_unit_p=rates)
    energies = [step.get("h1_norm_sq") for step in steps]
    if None not in energies:
        report["scale_count_bound"] = scale_count_bound(params,
                                                        max(energies))
    diverging = (len(sups) >= 3 and np.all(np.diff(sups) > 0.0)
                 and sups[-1] > 10.0 * sups[0])
    if len(rates) >= 2 and all(max(xs) <= 10.0 * min(xs)
                               for xs in (sups, rates)):
        verdict = COMPACT
    elif diverging:
        verdict = BLOWUP
    else:
        verdict = INCONCLUSIVE
    report["verdict"] = verdict
    report["consistent_with_theory"] = not (verdict == BLOWUP
                                            and theory_compact)
    return report

"""Concentration diagnostics for the subcritical family: scale
extraction, profile rescaling, pointwise envelope fitting, the blow-up
rate formula, and the compactness verdict."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bridge import b_origin
from .constants import (ProblemParams, admissibility, best_constant_estimate,
                        beta_pm, critical_exponent)
from .grids import spline_integral
from .kernel import sphere_area
from .profiles import EntireBubble, ProfileData, SolutionProfile

COMPACT = "COMPACT"
BLOWUP = "BLOWUP"
INCONCLUSIVE = "INCONCLUSIVE"


class FamilyError(ValueError):
    pass


@dataclass
class BubbleFamily:
    """A stack of concentration scales with their rescaled profiles.

    mu: increasing positive scales; k[i] = mu[i]^(1 - p/(q-2)) with q the
    critical exponent; t_limits[i] in (0, 1] approximates lim mu_i^p;
    bubbles holds the rescaled profiles, weak_limit the residual profile
    (None for a zero weak limit)."""

    mu: np.ndarray
    k: np.ndarray
    t_limits: np.ndarray
    p_defect: float
    params: ProblemParams
    bubbles: list = field(default_factory=list)
    weak_limit: ProfileData = None

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.k = np.asarray(self.k, dtype=float)
        self.t_limits = np.asarray(self.t_limits, dtype=float)
        if len(self.mu) != len(self.k) or len(self.mu) != len(self.t_limits):
            raise FamilyError("mu, k, t_limits must have equal length")
        if len(self.mu) and (np.any(self.mu <= 0)
                             or np.any(np.diff(self.mu) <= 0)):
            raise FamilyError("scales must be positive and increasing")
        q = critical_exponent(self.params.n, self.params.s)
        expo = 1.0 - self.p_defect / (q - 2.0)
        if len(self.mu) and np.max(np.abs(self.k - self.mu ** expo)
                                   / self.mu ** expo) > 1e-12:
            raise FamilyError("k inconsistent with mu and the defect")
        if len(self.mu) and (np.any(self.t_limits <= 0.0)
                             or np.any(self.t_limits > 1.0)):
            raise FamilyError("t limits must lie in (0, 1]")

    def __len__(self) -> int:
        return len(self.mu)

    @classmethod
    def from_scales(cls, mu, p: float, params: ProblemParams,
                    bubbles=None, weak_limit=None,
                    richardson: bool = False) -> "BubbleFamily":
        """Build the family from raw scales; t_i is estimated by mu_i^p
        (optionally Richardson-extrapolated toward p = 0 assuming the
        leading correction is linear in p)."""
        mu = np.asarray(mu, dtype=float)
        q = critical_exponent(params.n, params.s)
        k = mu ** (1.0 - p / (q - 2.0))
        t = mu ** p
        if richardson and p > 0:
            # t(p) = 1 + p log(mu) + O(p^2); extrapolate the exponent
            t = np.exp(2.0 * np.log(mu ** p) - np.log(mu ** (2.0 * p)))
        t = np.clip(t, 1e-300, 1.0)
        return cls(mu=mu, k=k, t_limits=t, p_defect=p, params=params,
                   bubbles=list(bubbles) if bubbles else [],
                   weak_limit=weak_limit)


@dataclass
class EnvelopeReport:
    constant: float              # smallest C with |u| <= C * envelope
    worst_ratio: float           # max over the grid of |u| / envelope
    worst_annulus: tuple         # (r_lo, r_hi) of the worst decade
    annuli: list                 # per-decade (r_lo, r_hi, max_ratio)
    budget: float = math.inf

    @property
    def passed(self) -> bool:
        return self.worst_ratio <= self.budget


def rescale_profile(u: SolutionProfile, mu: float, p: float,
                    radii=None) -> SolutionProfile:
    """Zoom to the scale mu: returns x -> mu^{(n-2)/2} u(k x) with
    k = mu^{1 - p/(q-2)}.

    With no target radii the native grid is carried along exactly (radii
    r/k); a supplied grid is evaluated through the spline and rows outside
    the support are dropped, with a flag in the metadata."""
    if mu <= 0.0:
        raise FamilyError("scale must be positive")
    n, s = u.params.n, u.params.s
    q = critical_exponent(n, s)
    if not (0.0 <= p < q - 2.0):
        raise FamilyError("defect must lie in [0, q - 2)")
    k = mu ** (1.0 - p / (q - 2.0))
    amp = mu ** ((n - 2.0) / 2.0)
    truncated = False
    if radii is None:
        r_new = u.data.r / k
        v_new = amp * u.data.v
        dv_new = amp * k * u.data.dv
    else:
        radii = np.asarray(radii, dtype=float)
        pulled = k * radii
        inside = (pulled >= u.data.r[0]) & (pulled <= u.data.r[-1])
        truncated = bool(np.any(~inside))
        r_new = radii[inside]
        if len(r_new) < 8:
            raise FamilyError("target radii fall outside the support")
        t_pulled = np.log(k * r_new)
        v_new = amp * u.data.spline()(t_pulled)
        dv_new = amp * k * u.data.dspline()(t_pulled)
    bm, _ = beta_pm(n, u.params.gamma)
    data = ProfileData(r=r_new, v=v_new, dv=dv_new)
    return SolutionProfile(
        data=data, params=u.params, p_defect=p, K0=u.K0 * amp * k ** -bm,
        node_count=u.node_count, energy=u.energy,
        residual_norm=u.residual_norm, boundary_value=u.boundary_value,
        diverged=u.diverged,
        meta={"rescaled_from": dict(u.meta), "mu": mu, "k": k,
              "truncated": truncated})


def _weighted_profile(u: SolutionProfile, p: float) -> np.ndarray:
    n, s = u.params.n, u.params.s
    q = critical_exponent(n, s)
    return u.data.r ** ((n - 2.0) / 2.0) * \
        np.abs(u.data.v) ** (1.0 - p / (q - 2.0))


def detect_scales(u: SolutionProfile, p: float, tau: float = None,
                  separation_decades: float = 1.0,
                  consistency_factor: float = 10.0,
                  boundary_frac: float = 0.25,
                  noise_floor: float = 1e-10) -> list:
    """Concentration scales of a profile, as (mu, location) pairs sorted
    by increasing mu.

    Local maxima of w(r) = r^{(n-2)/2} |u|^{1 - p/(q-2)}, separated by at
    least a decade, are candidate cores; each yields mu = |u(r*)|^{-2/(n-2)}.
    A candidate is kept only when its location is consistent with its own
    zoom factor (r* within a fixed factor of k = mu^{1-p/(q-2)}) and clear
    of the outer boundary; together these distinguish a concentrating core
    from the broad interior maximum every smooth profile has."""
    n, gamma = u.params.n, u.params.gamma
    bm, _ = beta_pm(n, gamma)
    if tau is None:
        tau = 0.5 * (bm + (n - 2.0) / 2.0)
    if not (bm < tau < (n - 2.0) / 2.0):
        raise FamilyError("tau must lie strictly between beta_- and (n-2)/2")
    q = critical_exponent(n, u.params.s)
    w = _weighted_profile(u, p)
    r = u.data.r
    floor = noise_floor * np.max(w)
    # strict interior local maxima of the weighted profile
    r_cap = boundary_frac * r[-1]
    cand = [i for i in range(1, len(w) - 1)
            if w[i] > w[i - 1] and w[i] >= w[i + 1] and w[i] > floor
            and r[i] <= r_cap]
    # greedy decade separation, strongest first
    cand.sort(key=lambda i: -w[i])
    kept = []
    for i in cand:
        if all(abs(math.log10(r[i] / r[j])) >= separation_decades
               for j in kept):
            kept.append(i)
    out = []
    for i in kept:
        amp = abs(u.data.v[i])
        if amp <= 0.0:
            continue
        mu = amp ** (-2.0 / (n - 2.0))
        k = mu ** (1.0 - p / (q - 2.0))
        if not (1.0 / consistency_factor <= r[i] / k <= consistency_factor):
            continue
        out.append((float(mu), float(r[i])))
    out.sort(key=lambda pair: pair[0])
    return out


def calibrated_bubble(bubble: EntireBubble) -> ProfileData:
    """Representative of the bubble's scaling orbit whose value equals one
    at the maximum of the weighted profile; with this normalization the
    scale read off by detect_scales is exactly the planted one."""
    n = bubble.n
    nu = (n - 2.0) / 2.0
    # peak of x^{nu} |B(x)| sits at the peak amplitude psi_peak
    lam = bubble.psi_peak ** (1.0 / nu)
    r = bubble.data.r * lam
    amp = lam ** -nu
    return ProfileData(r=r, v=amp * bubble.data.v, dv=amp / lam * bubble.data.dv)


def plant_bubbles(bubble: EntireBubble, scales, p: float,
                  params: ProblemParams, radii) -> SolutionProfile:
    """Synthetic superposition of calibrated bubbles at the given scales,
    sampled on the given radii; used to validate the detectors."""
    cal = calibrated_bubble(bubble)
    spline = cal.spline()
    dspline = cal.dspline()
    n = params.n
    q = critical_exponent(n, params.s)
    radii = np.asarray(radii, dtype=float)
    v = np.zeros_like(radii)
    dv = np.zeros_like(radii)
    lo, hi = cal.r[0], cal.r[-1]
    bm, bp = beta_pm(n, params.gamma)
    for mu in scales:
        k = mu ** (1.0 - p / (q - 2.0))
        x = radii / k
        t = np.log(np.clip(x, lo, hi))
        amp = mu ** (-(n - 2.0) / 2.0)
        vals = np.where((x >= lo) & (x <= hi), spline(t), 0.0)
        # power-law continuation outside the stored window
        vals = np.where(x < lo, spline(math.log(lo)) * (x / lo) ** -bm, vals)
        vals = np.where(x > hi, spline(math.log(hi)) * (x / hi) ** -bp, vals)
        v += amp * vals
        dvals = np.where((x >= lo) & (x <= hi), dspline(t), 0.0)
        dvals = np.where(x < lo,
                         -bm * spline(math.log(lo)) * (x / lo) ** (-bm - 1) / lo,
                         dvals)
        dvals = np.where(x > hi,
                         -bp * spline(math.log(hi)) * (x / hi) ** (-bp - 1) / hi,
                         dvals)
        dv += amp * dvals / k
    data = ProfileData(r=radii, v=v, dv=dv)
    return SolutionProfile(data=data, params=params, p_defect=p, K0=0.0,
                           node_count=data.node_count(), energy=math.nan,
                           residual_norm=math.nan, boundary_value=v[-1],
                           meta={"synthetic_scales": [float(m) for m in scales]})


def envelope_values(r, family: BubbleFamily, u0_weighted_sup: float):
    """Pointwise value of the two-sided envelope: the bubble stack terms
    plus the weak-limit tail."""
    n, gamma = family.params.n, family.params.gamma
    bm, bp = beta_pm(n, gamma)
    r = np.asarray(r, dtype=float)
    env = np.zeros_like(r)
    for mu in family.mu:
        env += mu ** ((bp - bm) / 2.0) / (mu ** (bp - bm) * r ** bm + r ** bp)
    env += u0_weighted_sup / r ** bm
    return env


def envelope_check(u: SolutionProfile, family: BubbleFamily,
                   u0_sup: float = 0.0,
                   budget: float = math.inf) -> EnvelopeReport:
    """Fit the smallest constant C with |u| <= C * envelope on the grid
    and localize the worst decade.  u0_sup is the weighted sup norm of the
    weak limit (sup of |x|^{beta_-} |u0|)."""
    r = u.data.r
    env = envelope_values(r, family, u0_sup)
    absu = np.abs(u.data.v)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(env > 0.0, absu / env,
                         np.where(absu > 0.0, math.inf, 0.0))
    worst = float(np.max(ratio)) if len(ratio) else 0.0
    # per-decade breakdown
    annuli = []
    lo = math.floor(math.log10(r[0]))
    hi = math.ceil(math.log10(r[-1]))
    worst_band = (r[0], r[-1])
    for d in range(lo, hi):
        mask = (r >= 10.0 ** d) & (r < 10.0 ** (d + 1))
        if not mask.any():
            continue
        band_max = float(np.max(ratio[mask]))
        annuli.append((10.0 ** d, 10.0 ** (d + 1), band_max))
        if band_max == worst:
            worst_band = (10.0 ** d, 10.0 ** (d + 1))
    return EnvelopeReport(constant=worst, worst_ratio=worst,
                          worst_annulus=worst_band, annuli=annuli,
                          budget=budget)


def bubble_weighted_integrals(bubble_data: ProfileData, n: int, s: float,
                              theta: float) -> dict:
    """Quadrature of the two bubble integrals entering the rate formula:
    the theta-weighted square mass and the critical singular mass."""
    q = critical_exponent(n, s)
    t = np.log(bubble_data.r)
    omega = sphere_area(n)
    sq = bubble_data.v ** 2 * bubble_data.r ** (n - theta)
    crit = np.abs(bubble_data.v) ** q * bubble_data.r ** (n - s)
    return {
        "sq_theta": omega * spline_integral(t, sq),
        "crit_mass": omega * spline_integral(t, crit),
    }


def rate_formula(params: ProblemParams, family: BubbleFamily,
                 bubble_integrals: list) -> float:
    """Closed-form limit of p / mu_N^{2-theta} predicted for a blow-up
    family; strictly negative whenever c > 0 and the integrals are
    positive."""
    if len(family) == 0:
        raise FamilyError("empty family has no rate")
    if len(bubble_integrals) != len(family):
        raise FamilyError("need one integral record per scale")
    n, s = params.n, params.s
    theta, c = params.theta, params.c
    q = critical_exponent(n, s)
    b0 = b_origin(n, s)
    tN = family.t_limits[-1]
    num = bubble_integrals[-1]["sq_theta"]
    den = sum(b0 / family.t_limits[i] ** ((n - 2.0) / (q - 2.0))
              * bubble_integrals[i]["crit_mass"]
              for i in range(len(family)))
    if den <= 0.0:
        raise FamilyError("degenerate critical mass in the rate formula")
    return (-(2.0 - theta) / 2.0 * c / tN ** ((n - theta) / (q - 2.0))
            * 4.0 * (n - s) / (n - 2.0) ** 2 * num / den)


def rate_check(family_over_p, params: ProblemParams,
               bubble_integrals: list, rtol: float = 0.02) -> dict:
    """Compare the measured p / mu_N^{2-theta} along a sequence of
    families against the closed formula, and flag the sign obstruction:
    for c > 0 the formula is negative while the defect is nonnegative, so
    no blow-up family can exist in that regime."""
    family_over_p = list(family_over_p)
    if not family_over_p:
        return {"applicable": False,
                "reason": "no blow-up family exists (empty input)"}
    theta = params.theta
    measured = []
    for p, fam in family_over_p:
        if len(fam) == 0:
            return {"applicable": False,
                    "reason": "family without scales in the sequence"}
        measured.append(float(p) / fam.mu[-1] ** (2.0 - theta))
    formula = rate_formula(params, family_over_p[-1][1], bubble_integrals)
    limit = measured[-1]
    gap = abs(limit - formula) / max(abs(formula), 1e-300)
    sign_contradiction = (params.c > 0.0 and formula < 0.0
                          and all(p >= 0.0 for p, _ in family_over_p))
    return {
        "applicable": True,
        "measured": measured,
        "measured_limit": limit,
        "formula": formula,
        "relative_gap": gap,
        "matches": gap <= rtol,
        "sign_contradiction": sign_contradiction,
    }


def scale_count_bound(params: ProblemParams, energy_budget: float) -> float:
    """Upper bound on the number of concentration scales a family with the
    given energy budget can carry, from the best-constant estimate."""
    n, s = params.n, params.s
    q = critical_exponent(n, s)
    best = best_constant_estimate(n, s, params.gamma)["value"]
    return energy_budget * (b_origin(n, s) / best) ** (q / (q - 2.0))


def compactness_verdict(continuation_output, params: ProblemParams,
                        sup_bound_factor: float = 10.0,
                        decay_factor: float = 0.9) -> dict:
    """Classify a continuation run as COMPACT, BLOWUP, or INCONCLUSIVE.

    COMPACT requires the weighted sup norms to stay within a fixed factor
    of their smallest value and the profile increments to decay
    geometrically; BLOWUP requires the weighted sups to grow monotonically
    beyond the same factor.  The verdict is cross-checked against the
    regime flags."""
    profiles = list(continuation_output)
    flags = admissibility(params)
    theory_compact = flags["multiplicity_regime"] and flags["c_positive"]
    report = {"theory_compact": theory_compact, "flags": flags}
    if not profiles:
        report.update({"verdict": INCONCLUSIVE,
                       "reason": "empty continuation"})
        return report
    sups = [prof.meta.get("weighted_sup") for prof in profiles]
    incs = [prof.meta["sup_increment"] for prof in profiles
            if "sup_increment" in prof.meta]
    if any(w is None for w in sups):
        report.update({"verdict": INCONCLUSIVE,
                       "reason": "missing weighted sup data"})
        return report
    sups = np.asarray(sups, dtype=float)
    report["weighted_sups"] = [float(w) for w in sups]
    report["sup_increments"] = [float(i) for i in incs]
    energies = [prof.meta.get("h1_norm_sq") for prof in profiles]
    if all(e is not None for e in energies):
        report["scale_count_bound"] = scale_count_bound(
            params, float(np.max(energies)))
    bounded = float(np.max(sups)) <= sup_bound_factor * float(np.min(sups))
    diverging = (len(sups) >= 3 and np.all(np.diff(sups) > 0.0)
                 and sups[-1] > sup_bound_factor * sups[0])
    cauchy = False
    if len(incs) >= 2:
        ratios = [b / a for a, b in zip(incs, incs[1:]) if a > 0.0]
        cauchy = bool(ratios) and \
            float(np.exp(np.mean(np.log(ratios)))) <= decay_factor
    elif len(incs) == 1:
        cauchy = incs[0] < 1e-6
    if bounded and cauchy:
        verdict = COMPACT
    elif diverging:
        verdict = BLOWUP
    else:
        verdict = INCONCLUSIVE
    report["verdict"] = verdict
    report["consistent_with_theory"] = (
        verdict == INCONCLUSIVE
        or (verdict == COMPACT) == theory_compact)
    return report

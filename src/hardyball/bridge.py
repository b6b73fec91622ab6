"""Dictionary between the ball problem and its flat singular reduction:
conformal factor, induced potential and weight, the coercivity constant,
and an exactness check of the correspondence."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import (AdmissibilityError, ProblemParams,
                        critical_exponent, h_origin)
from .grids import CubicSpline, ProfileData, log_derivative_matrix_apply
from .kernel import DomainError, weight_V_p
from .profiles import SolverError

# the log grid of the discretized quadratic form: inner cutoff and nodes
_FORM_R0, _FORM_NUM = 1e-6, 2000


def phi(r, n: int):
    r = np.asarray(r, dtype=float)
    if np.any(r >= 1.0) or np.any(r < 0.0):
        raise DomainError("radius must lie in [0, 1)")
    out = (2.0 / (1.0 - r * r)) ** ((n - 2.0) / 2.0)
    return float(out) if out.ndim == 0 else out


def euclidean_potential(r, n: int, gamma: float, lam: float):
    """Exact flat-side potential gamma/r^2 + h(r) induced by the conformal
    substitution (all dimensions, no truncation)."""
    r = np.asarray(r, dtype=float)
    conf2 = (2.0 / (1.0 - r * r)) ** 2
    V2 = weight_V_p(r, n, 2.0)
    out = (gamma * V2 + lam - n * (n - 2.0) / 4.0) * conf2
    return float(out) if np.ndim(out) == 0 else out


def h_conformal(r, n: int, gamma: float, lam: float):
    """Exact induced h: the full flat potential minus the Hardy part."""
    r = np.asarray(r, dtype=float)
    out = euclidean_potential(r, n, gamma, lam) - gamma / r ** 2
    return float(out) if np.ndim(out) == 0 else out


def b_weight(r, n: int, s: float):
    """Flat-side nonlinearity weight induced by the conformal substitution:
    b(r) = V_q(r) r^s phi(r)^{2* - q} with q the critical exponent for s.

    Continuous and positive on (0, 1) with the closed-form value
    (n-2)^{(2-s)/(n-2)} / 2^{2-s} at the origin."""
    q = critical_exponent(n, s)
    two_star = critical_exponent(n, 0.0)
    r = np.asarray(r, dtype=float)
    out = weight_V_p(r, n, q) * r ** s * phi(r, n) ** (two_star - q)
    return float(out) if np.ndim(out) == 0 else out


def b_origin(n: int, s: float) -> float:
    return (n - 2.0) ** ((2.0 - s) / (n - 2.0)) / 2.0 ** (2.0 - s)


@dataclass
class EuclideanProblem:
    """The paper's flat Dirichlet problem on the centered ball of radius
    R < 1, for n >= 5: its lower-order coefficient is the constant
    h0 = constants.h_origin, and b is the table of the induced weight
    b_weight, its samples multiplied by b_scale."""

    params: ProblemParams
    domain_radius: float = 0.5
    b_scale: float = 1.0

    h0: float = field(init=False)
    _b_spline: CubicSpline = field(init=False, repr=False, compare=False)
    _b_table: tuple = field(init=False, repr=False, compare=False)
    _coercive: bool = field(default=None, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        if self.params.n < 5:
            raise AdmissibilityError(
                "the flat problem needs n >= 5, where h is the constant h(0)")
        if not (0.0 < self.domain_radius < 1.0):
            raise DomainError("domain radius must lie in (0, 1)")
        self.h0 = h_origin(self.params)
        t = np.linspace(math.log(1e-8), math.log(self.domain_radius), 400)
        self._b_spline = CubicSpline(
            t, self.b_scale * b_weight(np.exp(t), self.params.n,
                                       self.params.s))
        self._b_table = (self._b_spline.x.tolist(),
                         *self._b_spline.c.tolist())

    def b_table(self):
        """The b table in plain floats: its knots in log r, then per
        interval the coefficients of d^3, d^2, d and 1 (d from its knot)."""
        return self._b_table

    def coercive(self) -> bool:
        """Whether no pencil eigenvalue of the quadratic form lies below
        -1e-3 (one Sturm count), kept: the form does not depend on p."""
        if self._coercive is None:
            form = _quadratic_form_diagonals(self, _FORM_R0, _FORM_NUM)
            self._coercive = _count_eigs_below(-1e-3, *form) == 0
        return self._coercive

    def b(self, r):
        """b at the radii r, a float for a float."""
        out = self._b_spline(np.log(np.asarray(r, dtype=float)))
        return float(out) if np.ndim(out) == 0 else out

    def b_radial_slope(self, r):
        r = np.asarray(r, dtype=float)
        out = self._b_spline(np.log(r), 1) / r
        return float(out) if np.ndim(out) == 0 else out


class CoercivityFailure(SolverError):
    """The discretized form is not finite, or its lowest eigenvalue could
    not be bracketed."""


def _quadratic_form_diagonals(problem: EuclideanProblem, r0: float,
                              num: int) -> tuple:
    """Tridiagonal P1 discretization (in log radius) of the quadratic form
    and of the Dirichlet energy, with the radial measure lumped at nodes.

    Returns three arrays: the main diagonals of the form and of the energy,
    and their common off-diagonal (the lumped Hardy and h masses are
    diagonal).  Dirichlet condition at the outer boundary (its node is
    dropped), natural at the inner cutoff."""
    n = problem.params.n
    gamma = problem.params.gamma
    t = np.linspace(math.log(r0), math.log(problem.domain_radius), num)
    ht = t[1] - t[0]
    r = np.exp(t)
    # stiffness and Hardy mass share the weight r^{n-2} dt
    w_mid = np.exp((n - 2.0) * 0.5 * (t[:-1] + t[1:]))
    energy = np.zeros(num)
    energy[:-1] += w_mid / ht
    energy[1:] += w_mid / ht
    off = -w_mid / ht
    # lumped masses
    lump = np.zeros(num)
    lump[:-1] += 0.5 * ht
    lump[1:] += 0.5 * ht
    form = (energy - gamma * (lump * r ** (n - 2.0))
            - lump * problem.h0 * r ** float(n))
    return form[:-1], energy[:-1], off[:-1]


def _count_eigs_below(lam: float, form, energy, off) -> int:
    """Number of pencil eigenvalues strictly below lam, from the inertia
    of the tridiagonal form - lam * energy (Sturm sequence of the LDL^T
    pivots), run in plain floats on the squares of the off-diagonal."""
    d = (form - lam * energy).tolist()
    e2 = [0.0] + ((off - lam * off) ** 2).tolist()    # the first pivot is d[0]
    count, prev = 0, 1.0
    for dk, e2k in zip(d, e2):
        piv = dk - e2k / prev
        if piv == 0.0:
            piv = -1e-300
        if piv < 0.0:
            count += 1
        prev = piv
    return count


def _tridiagonal_product(diag, off, u):
    """The symmetric tridiagonal matrix (diag, off) times u, each row's
    diagonal term first, then its left and its right neighbour."""
    out = diag * u
    out[1:] += off * u[:-1]
    out[:-1] += off * u[1:]
    return out


def coercivity_lambda0(problem: EuclideanProblem,
                       num: int = _FORM_NUM) -> float:
    """Smallest generalized eigenvalue of the quadratic form against the
    Dirichlet energy.  The discrete form is coercive iff the returned
    value is positive; the ground-state pre-check `coercive()` refuses only
    a value below -1e-3.

    Both discretized forms are tridiagonal, so the eigenvalue is located
    by bisection on the pencil inertia (Sturm-sequence pivot counts);
    unlike vector iteration this is immune to the tight clustering these
    pencils exhibit."""
    form, energy, off = _quadratic_form_diagonals(problem, _FORM_R0, num)
    if not (np.all(np.isfinite(form)) and np.all(np.isfinite(energy))):
        raise CoercivityFailure("non-finite discretized form")
    x = np.ones(len(form))
    # Rayleigh quotient of the constant vector, >= lambda_min
    hi = float((x @ _tridiagonal_product(form, off, x))
               / (x @ _tridiagonal_product(energy, off, x)))
    if _count_eigs_below(hi, form, energy, off) == 0:
        raise CoercivityFailure("no eigenvalue bracketed from above")
    lo, step = hi, max(1.0, abs(hi))
    for _ in range(200):
        lo -= step
        step *= 2.0
        if _count_eigs_below(lo, form, energy, off) == 0:
            break
    else:
        raise CoercivityFailure("no eigenvalue bracketed from below")
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if _count_eigs_below(mid, form, energy, off) >= 1:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-11 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def residual_equivalence_check(u: ProfileData,
                               problem: EuclideanProblem) -> dict:
    """Compare the ball-side residual of u with the flat-side residual of
    the transported profile, after the conformal weight factor.

    Uses the exact induced potential and weight, so for smooth profiles the
    weighted difference vanishes at the differentiation order."""
    params = problem.params
    n, gamma, lam, s = params.n, params.gamma, params.lam, params.s
    q = critical_exponent(n, s)
    r = u.r
    t = np.log(r)
    rho = 2.0 / (1.0 - r * r)

    # ball-side Laplacian: rho^-n r^{1-n} d/dr (rho^{n-2} r^{n-1} u')
    du_dt = log_derivative_matrix_apply(t, u.v)
    flux = rho ** (n - 2.0) * r ** (n - 1.0) * du_dt / r
    dflux_dt = log_derivative_matrix_apply(t, flux)
    lap_ball = dflux_dt / r / (rho ** float(n) * r ** (n - 1.0))
    V2 = weight_V_p(r, n, 2.0)
    Vq = weight_V_p(r, n, q)
    res_ball = (-lap_ball - gamma * V2 * u.v - lam * u.v
                - Vq * np.abs(u.v) ** (q - 2.0) * u.v)

    v = u.v * phi(r, n)
    dv_dt = log_derivative_matrix_apply(t, v)
    d2v_dt = log_derivative_matrix_apply(t, dv_dt)
    lap_flat = (d2v_dt + (n - 2.0) * dv_dt) / r ** 2
    W = euclidean_potential(r, n, gamma, lam)
    bw = b_weight(r, n, s)
    res_flat = (-lap_flat - W * v
                - bw * np.abs(v) ** (q - 2.0) * v / r ** s)

    weight = phi(r, n) ** ((n + 2.0) / (n - 2.0))
    diff = res_flat - weight * res_ball
    scale = max(np.max(np.abs(res_flat)), np.max(np.abs(weight * res_ball)),
                1e-300)
    return {
        "max_difference": float(np.max(np.abs(diff))),
        "relative_difference": float(np.max(np.abs(diff)) / scale),
        "ball_residual_max": float(np.max(np.abs(res_ball))),
        "flat_residual_max": float(np.max(np.abs(res_flat))),
    }

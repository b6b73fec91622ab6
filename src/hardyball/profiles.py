"""Solution records and solver errors: the solutions the solvers return
and the audits, the blow-up lab and the CLI read, free of the integrator
so that reading a stored profile does not load the solver."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import ProblemParams, critical_exponent
from .grids import ProfileData


class SolverError(RuntimeError):
    def __init__(self, message, shoots=0):
        super().__init__(message)
        self.shoots = shoots


class BracketNotFound(SolverError):
    def __init__(self, message, node_counts=None, shoots=0):
        super().__init__(message, shoots)
        self.node_counts = node_counts or {}


class NotCoercive(SolverError):
    """The quadratic form is not coercive, so no positive solution exists."""


@dataclass
class SolutionProfile:
    data: ProfileData
    params: ProblemParams
    p_defect: float
    K0: float
    node_count: int
    energy: float
    residual_norm: float
    boundary_value: float
    diverged: bool = False
    meta: dict = field(default_factory=dict)
    # kept in memory only, never written: a shoot's dense output, and the
    # nonlinear mass that a solve integrates with the energy
    trajectory: object = field(default=None, repr=False, compare=False)
    nonlinear_mass: float = field(default=float("nan"), compare=False)


@dataclass
class EntireBubble:
    """Positive entire radial solution of the limit equation
    -Delta w - gamma w / r^2 = b0 w^{q-1} / r^s on (0, inf), in closed form
    [Catrina & Wang, CPAM 54 (2001)]:
    w(r) = r^{-(n-2)/2} psi_peak sech(alpha ln r)^{2/(q-2)}, with
    alpha = sqrt(a) (q-2)/2 and a = (n-2)^2/4 - gamma.  data samples it;
    w ~ K_minus r^{-beta_-} at 0 and w ~ K_plus r^{-beta_+} at infinity."""
    n: int
    s: float
    gamma: float
    b0: float
    K_minus: float
    K_plus: float
    psi_peak: float
    data: ProfileData = None

    def at(self, r) -> tuple:
        """w and dw/dr = (w/r)(-(n-2)/2 - sqrt(a) tanh(alpha ln r)) at the
        radii r.  ln sech x is taken as ln 2 - |x| - log1p(e^{-2|x|}), and
        r^{-(n-2)/2} joins it in one exponent, so that neither overflows."""
        nu = (self.n - 2.0) / 2.0
        root = math.sqrt(nu * nu - self.gamma)
        expo = 2.0 / (critical_exponent(self.n, self.s) - 2.0)
        r = np.asarray(r, dtype=float)
        t = np.log(r)
        x = root / expo * t                 # alpha ln r
        ax = np.abs(x)
        log_sech = math.log(2.0) - ax - np.log1p(np.exp(-2.0 * ax))
        w = self.psi_peak * np.exp(expo * log_sech - nu * t)
        return w, w / r * (-nu - root * np.tanh(x))

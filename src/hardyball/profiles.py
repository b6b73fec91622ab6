"""Solution records and solver errors: the solutions the solvers return
and the audits, the blow-up lab and the CLI read, and the entire-space
bubble in closed form, free of the integrator so that reading a stored
profile or building the bubble does not load the solver."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import ProblemParams, beta_pm, critical_exponent
from .grids import ProfileData


class SolverError(RuntimeError):
    def __init__(self, message, shoots=0):
        super().__init__(message)
        self.shoots = shoots


class BracketNotFound(SolverError):
    """A walk that reached the end of its range with no sign change."""


class NoSignChange(SolverError, ValueError):
    """A root-finder's bracket whose ends have the same sign."""


class NotConverged(SolverError):
    """A root-finder that reached its step cap short of its tolerance."""


class NotCoercive(SolverError):
    """The quadratic form is not coercive, so no positive solution exists."""


@dataclass
class SolutionProfile:
    """A radial profile and the params it solves, the defect p among them;
    its node count and boundary value are read from its samples.  It holds
    what its two stored files hold (cli._sidecar, cli.read_profile)."""
    data: ProfileData
    params: ProblemParams
    K0: float
    energy: float
    residual_norm: float
    meta: dict = field(default_factory=dict)


@dataclass
class EntireBubble:
    """Positive entire radial solution of the limit equation
    -Delta w - gamma w / r^2 = b0 w^{q-1} / r^s on (0, inf), in closed form
    [Catrina & Wang, CPAM 54 (2001)]:
    w(r) = r^{-(n-2)/2} psi_peak sech(alpha ln r)^{2/(q-2)}, with
    alpha = sqrt(a) (q-2)/2 and a = (n-2)^2/4 - gamma.  data samples it,
    with its exact derivative, at 4001 log-uniform radii over the given
    decades, centred on r = 1, where r^{(n-2)/2} w peaks; w ~ K r^{-beta_-}
    at 0 and w ~ K r^{-beta_+} at infinity, with one coefficient K."""
    n: int
    s: float
    gamma: float
    b0: float
    decades: float
    data: ProfileData = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        beta_pm(self.n, self.gamma)     # raises above the Hardy threshold
        T_half = self.decades * math.log(10.0) / 2.0
        r = np.exp(np.linspace(-T_half, T_half, 4001))
        self.data = ProfileData(r, *self.at(r))

    @property
    def psi_peak(self) -> float:
        """The peak of r^{(n-2)/2} w, at r = 1."""
        q = critical_exponent(self.n, self.s)
        nu = (self.n - 2.0) / 2.0
        return ((nu * nu - self.gamma) * q / (2.0 * self.b0)) \
            ** (1.0 / (q - 2.0))

    @property
    def K(self) -> float:
        """The indicial coefficient at both ends: psi_peak 2^{2/(q-2)}."""
        q = critical_exponent(self.n, self.s)
        return self.psi_peak * 2.0 ** (2.0 / (q - 2.0))

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

"""Solution records and solver errors: the radial samples the solvers
return and the audits, the blow-up lab and the CLI read, free of the
integrator so that reading a stored profile loads no scipy."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import ProblemParams
from .grids import CubicSpline


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


def _sign_changes(v: np.ndarray, sup: float) -> int:
    """Sign changes along v, skipping samples at or below 1e-13 * sup."""
    return int(np.count_nonzero(np.diff(np.sign(v[np.abs(v) > 1e-13 * sup]))))


@dataclass
class ProfileData:
    """Radial samples (log-uniform) with derivative, free of ball bounds."""
    r: np.ndarray
    v: np.ndarray
    dv: np.ndarray

    def spline(self) -> CubicSpline:
        return CubicSpline(np.log(self.r), self.v)

    def dspline(self) -> CubicSpline:
        return CubicSpline(np.log(self.r), self.dv)

    def node_count(self) -> int:
        """Interior sign changes; the boundary sample is left out."""
        return _sign_changes(self.v[:-1], np.max(np.abs(self.v)))


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


@dataclass
class EntireBubble:
    """Positive entire radial solution of the limit equation on (0, inf)."""
    data: ProfileData
    n: int
    s: float
    gamma: float
    b0: float
    K_minus: float
    K_plus: float
    psi_peak: float
    meta: dict = field(default_factory=dict)

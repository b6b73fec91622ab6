"""Solution records and solver errors: the solutions the solvers return
and the audits, the blow-up lab and the CLI read, free of the integrator
so that reading a stored profile does not load the solver."""

from __future__ import annotations

from dataclasses import dataclass, field

from .constants import ProblemParams
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

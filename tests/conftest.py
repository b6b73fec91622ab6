"""Shared fixtures: the reference configuration, its ground states, the
entire-space bubble, and a full continuation run (computed once per
session; several test modules and the acceptance suite reuse them), and
the whole-space stub problem of the bubble's Pohozaev checks."""

from dataclasses import dataclass

import numpy as np
import pytest

from hardyball import solver
from hardyball.bridge import EuclideanProblem, b_origin
from hardyball.constants import ProblemParams
from hardyball.profiles import EntireBubble
from hardyball.solver import (continuation_to_critical, shoot,
                              solve_dirichlet_shooting, solve_variational)

REF = dict(n=5, s=1.0, gamma=-2.0, lam=10.0)


def warm(problem):
    """The step solve of a continuation on problem: a shooting solve with
    the default settings, from the step's K_start."""
    return lambda p, K_start: solve_dirichlet_shooting(problem, p,
                                                       K_start=K_start)


def sampled_shoot(problem, K, p, num=3000, r0=None, **kw):
    """The shoot of K from r0 (the solvers' default if None), sampled at
    num log-uniform radii; kw are shoot's tolerances."""
    r0 = solver._start_radius(problem, r0)
    return solver._sampled(shoot(problem, K, p, r0=r0, **kw), problem, K, p,
                           r0, num)


@dataclass
class ConstStub:
    """Whole-space problem with a flat weight and no linear potential."""
    b0: float
    params: ProblemParams
    h0: float = 0.0

    def b(self, r):
        return self.b0 + 0.0 * np.asarray(r)

    def b_radial_slope(self, r):
        return 0.0 * np.asarray(r)


@pytest.fixture(scope="session")
def ref_params():
    return ProblemParams(**REF)


@pytest.fixture(scope="session")
def ref_problem(ref_params):
    return EuclideanProblem(ref_params, domain_radius=0.5)


@pytest.fixture(scope="session")
def ground_shoot(ref_problem):
    """Reference ground state (p = 0.2) by nodal shooting."""
    return solve_dirichlet_shooting(ref_problem, p=0.2)


@pytest.fixture(scope="session")
def ground_var(ref_problem):
    """Same ground state by constrained descent (cross-check path)."""
    return solve_variational(ref_problem, p=0.2)


@pytest.fixture(scope="session")
def bubble(ref_params):
    """Entire-space limit profile over ten decades."""
    return EntireBubble(ref_params.n, ref_params.s, ref_params.gamma,
                        b_origin(ref_params.n, ref_params.s), decades=10.0)


@pytest.fixture(scope="session")
def continuation(ref_problem):
    """Warm-started family down to the critical exponent."""
    import time
    schedule = (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125, 0.0)
    start = time.perf_counter()
    profiles, failure = continuation_to_critical(ref_problem, schedule,
                                                 warm(ref_problem))
    assert len(profiles) == len(schedule) and failure is None
    profiles[0].meta["fixture_build_seconds"] = time.perf_counter() - start
    return profiles


@pytest.fixture(scope="session")
def continuation_steps(continuation):
    """The continuation's steps as `continue` records them in
    continuation.json, the inputs of the compactness verdict."""
    return [{"p_defect": prof.params.p_defect, **prof.meta}
            for prof in continuation]


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)

"""Shared fixtures: the reference configuration, its ground states, the
entire-space bubble, and a full continuation run (computed once per
session; several test modules and the acceptance suite reuse them)."""

import numpy as np
import pytest

from hardyball.bridge import EuclideanProblem, b_origin
from hardyball.constants import ProblemParams
from hardyball.solver import (ContinuationSchedule, continuation_to_critical,
                              solve_dirichlet_shooting, solve_limit_equation,
                              solve_variational)

REF = dict(n=5, s=1.0, gamma=-2.0, lam=10.0)


@pytest.fixture(scope="session")
def ref_params():
    return ProblemParams(**REF)


@pytest.fixture(scope="session")
def ref_problem(ref_params):
    return EuclideanProblem(ref_params, domain_radius=0.5)


@pytest.fixture(scope="session")
def ground_shoot(ref_params, ref_problem):
    """Reference ground state (p = 0.2) by nodal shooting."""
    return solve_dirichlet_shooting(ref_params, ref_problem, p=0.2)


@pytest.fixture(scope="session")
def ground_var(ref_params, ref_problem):
    """Same ground state by constrained descent (cross-check path)."""
    return solve_variational(ref_params, ref_problem, p=0.2)


@pytest.fixture(scope="session")
def bubble(ref_params):
    """Entire-space limit profile over ten decades."""
    return solve_limit_equation(ref_params.n, ref_params.s, ref_params.gamma,
                                b_origin(ref_params.n, ref_params.s),
                                decades=10.0)


@pytest.fixture(scope="session")
def continuation(ref_params, ref_problem):
    """Warm-started family down to the critical exponent."""
    import time
    schedule = ContinuationSchedule((0.4, 0.2, 0.1, 0.05, 0.025, 0.0125, 0.0))
    start = time.perf_counter()
    profiles = continuation_to_critical(ref_params, ref_problem, schedule)
    assert len(profiles) == len(schedule.p_values)
    profiles[0].meta["fixture_build_seconds"] = time.perf_counter() - start
    return profiles


@pytest.fixture(scope="session")
def continuation_steps(continuation):
    """The continuation's steps as `continue` records them in
    continuation.json, the inputs of the compactness verdict."""
    return [{"p_defect": prof.p_defect, **prof.meta} for prof in continuation]


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)

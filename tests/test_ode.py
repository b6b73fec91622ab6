"""The scalar DOP853 integrator and Brent's root of hardyball.ode, checked
against scipy's implementations, which they port, and against closed
forms."""

import math
import traceback

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_dop853
from scipy.optimize import brentq

from hardyball import ode, solver
from hardyball.bridge import EuclideanProblem, b_origin
from hardyball.profiles import NoSignChange, NotConverged, SolverError


def _dense(rows, width):
    """A matrix from rows of (column, value) pairs."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        for j, value in row:
            out[i, j] = value
    return out


def test_tableau_is_bit_equal_to_scipy():
    # the rows and nodes the integrator runs on
    A = np.zeros((16, 16))
    A[1:] = _dense([row for _, row in ode._STAGES], 16)
    C = np.array([0.0] + [c for c, _ in ode._STAGES])
    assert np.array_equal(A, scipy_dop853.A)
    assert np.array_equal(C, scipy_dop853.C)
    assert np.array_equal(A[12, :12], scipy_dop853.B)
    assert np.array_equal(_dense([ode._E5_ROW, ode._E3_ROW], 13),
                          [scipy_dop853.E5, scipy_dop853.E3])
    assert np.array_equal(_dense(ode._D_ROWS, 16), scipy_dop853.D)
    # the stages are consistent: row s of A sums to its node C[s]
    assert np.max(np.abs(A.sum(axis=1) - C)) <= 1e-15


def _summed_term_by_term(row, kv, kw):
    """A row's sum over its (column, coefficient) pairs, one term at a time
    from 0.0: the order the generated step must keep."""
    sv = sw = 0.0
    for j, a in row:
        sv += a * kv[j]
        sw += a * kw[j]
    return sv, sw


class _Replay:
    """A right-hand side that records its arguments and returns the given
    stage values of stages 1, 2, ... in turn."""

    def __init__(self, kv, kw):
        self.kv, self.kw, self.calls = kv, kw, []

    def __call__(self, t, v, w):
        self.calls.append((t, v, w))
        s = len(self.calls)
        return self.kv[s], self.kw[s]


def test_generated_step_gives_the_term_by_term_floats(rng):
    for _ in range(1000):
        # stage values with magnitudes over 16 decades, so that rounding
        # differs between summation orders
        kv, kw = ((rng.standard_normal(16)
                   * 10.0 ** rng.integers(-8, 8, 16)).tolist() for _ in "vw")
        t, h, v, w = (rng.standard_normal(4)
                      * 10.0 ** rng.integers(-3, 3, 4)).tolist()
        # every stage's time and state, from its row summed term by term
        want = []
        for c, row in ode._STAGES:
            sv, sw = _summed_term_by_term(row, kv, kw)
            want.append((t + c * h, v + sv * h, w + sw * h))
        replay = _Replay(kv, kw)
        vs, ws, e5v, e5w, e3v, e3w, ks = ode._attempt(replay, t, h, v, w,
                                                      kv[0], kw[0])
        assert replay.calls == want[:12]
        assert (vs, ws) == want[11][1:]
        assert (e5v, e5w) == _summed_term_by_term(ode._E5_ROW, kv, kw)
        assert (e3v, e3w) == _summed_term_by_term(ode._E3_ROW, kv, kw)
        assert ks[-2:] == (kv[12], kw[12])
        piece = ode._dense(replay, t, h, v, w, vs, ws, *ks)
        assert replay.calls == want
        F = []
        for y, ys, k in ((v, vs, kv), (w, ws, kw)):
            dy = ys - y
            F += [dy, h * k[0] - dy, 2.0 * dy - h * (k[12] + k[0])]
            F += [h * _summed_term_by_term(row, k, k)[0]
                  for row in ode._D_ROWS]
        assert piece == (t, h, v, w, *F)


def _former_attempt_nfev(rhs, t, h, v, w, fv, fw):
    """The stage loop of the former integrator, which counted each
    evaluation before making it: the evaluations an attempt counts."""
    kv, kw = [fv] + [0.0] * 15, [fw] + [0.0] * 15
    nfev = 0
    try:
        for s, (c, row) in enumerate(ode._STAGES[:12], start=1):
            sv, sw = _summed_term_by_term(row, kv, kw)
            nfev += 1
            kv[s], kw[s] = rhs(t + c * h, v + sv * h, w + sw * h)
    except OverflowError:
        pass
    return nfev


def _overflowing(at, error=OverflowError):
    """v'' = v, raising error at the evaluation numbered at."""
    calls = []

    def rhs(t, v, w):
        calls.append(t)
        if len(calls) == at:
            raise error("math range error")
        return w, v
    return rhs


@pytest.mark.parametrize("stage", range(1, 13))
def test_overflow_in_a_stage_counts_the_stages_reached(stage):
    reached = _former_attempt_nfev(_overflowing(stage), 0.0, 0.1, 1.0, 0.0,
                                   0.0, 1.0)
    assert reached == stage
    with pytest.raises(OverflowError) as err:
        ode._attempt(_overflowing(stage), 0.0, 0.1, 1.0, 0.0, 0.0, 1.0)
    assert err.value.stages == reached
    # in the first attempt of an integration (after its 2 start
    # evaluations): that attempt is rejected, counting only its stages
    sol = ode._dop853(_overflowing(2 + stage), 0.0, 5.0, 1.0, 0.0,
                      rtol=1e-12, atol=1e-14)
    assert sol.t_end == 5.0 and sol.rejected >= 1
    assert sol.nfev == 2 + reached + 12 * (sol.steps + sol.rejected - 1)


@pytest.mark.parametrize("at, name", [(3, "attempt"), (14, "dense")])
def test_a_traceback_shows_the_stage_source(at, name):
    # the generated functions have their source in linecache; stage 3 is in
    # the first attempt, after the 2 start evaluations, and stage 14 in the
    # interpolant row of the first step, which the first sampling builds
    # after every evaluation of the integration
    integration = ode._dop853(_cosh_rhs, 0.0, 5.0, 1.0, 0.0, rtol=1e-12,
                              atol=1e-14).nfev
    before = {"attempt": 2, "dense": integration - 12}[name]
    with pytest.raises(ArithmeticError) as err:
        sol = ode._dop853(_overflowing(before + at, ArithmeticError), 0.0,
                          5.0, 1.0, 0.0, rtol=1e-12, atol=1e-14)
        sol(np.array([1.0]))
    frame = traceback.extract_tb(err.value.__traceback__)[-2]
    assert frame.filename == f"<dop853-{name}>"
    assert frame.line.startswith(f"k{at}v, k{at}w = rhs(t + ")


def _cosh_rhs(t, v, w):
    return w, v


@pytest.mark.parametrize("t1", [5.0])
def test_dense_output_reproduces_cosh_and_sinh(t1):
    # v'' = v from (1, 0): v = cosh t, v' = sinh t
    sol = ode._dop853(_cosh_rhs, 0.0, t1, 1.0, 0.0, rtol=1e-12, atol=1e-14)
    assert sol.t_end == t1 and not sol.diverged
    # the start makes 2 evaluations and every attempt 12; the interpolant
    # is not built yet, but the step ends are the solution's
    assert sol.nfev == 2 + 12 * (sol.steps + sol.rejected)
    assert len(sol.ts) == len(sol.v_ends) == len(sol.w_ends) == sol.steps + 1
    assert np.max(np.abs(sol.v_ends - np.cosh(sol.ts))
                  / np.cosh(sol.ts)) <= 1e-10
    assert np.max(np.abs(sol.w_ends - np.sinh(sol.ts))
                  / np.cosh(sol.ts)) <= 1e-10
    t = np.linspace(0.0, t1, 1001)
    v, w = sol(t)
    assert np.max(np.abs(v - np.cosh(t)) / np.cosh(t)) <= 1e-10
    assert np.max(np.abs(w - np.sinh(t)) / np.cosh(t)) <= 1e-10
    # the first sampling builds the rows, 3 evaluations per accepted step
    assert sol.nfev == 2 + 12 * (sol.steps + sol.rejected) + 3 * sol.steps
    sol(t)
    assert sol.nfev == 2 + 12 * (sol.steps + sol.rejected) + 3 * sol.steps


def test_guard_stops_where_v_reaches_it():
    guard = 1e3
    sol = ode._dop853(_cosh_rhs, 0.0, 20.0, 1.0, 0.0, rtol=1e-13,
                      atol=1e-15, guard=guard)
    assert sol.diverged
    assert sol.t_end == pytest.approx(math.acosh(guard), abs=1e-12)
    # the guard's Brent reads the last step's row, built at once; the step
    # ends there, on its interpolant
    assert sol.nfev == 2 + 12 * (sol.steps + sol.rejected) + 3
    assert sol.v_ends[-1] == pytest.approx(guard, rel=1e-11)
    v, w = sol(np.array([sol.t_end]))
    assert v[0] == pytest.approx(guard, rel=1e-11)
    assert (v[0], w[0]) == (sol.v_ends[-1], sol.w_ends[-1])
    assert sol.nfev == 2 + 12 * (sol.steps + sol.rejected) + 3 * sol.steps


def _scipy_shoot(problem, K, p, num=1200, rtol=1e-11, atol_scale=1e-13):
    """The shoot as it ran on scipy's solve_ivp, for the comparison."""
    R = problem.domain_radius
    r0 = 1e-5 * R
    v0, dv0 = solver.frobenius_init(problem, K, r0)
    guard = 1e12 * max(abs(K), abs(v0), 1.0)
    rhs = solver._rhs_factory(problem, p)

    def blow_event(t, y):
        return guard - abs(y[0])
    blow_event.terminal = True

    t0, t1 = math.log(r0), math.log(R)
    sol = solve_ivp(lambda t, y: rhs(t, *y), (t0, t1), (v0, dv0 * r0),
                    method="DOP853", rtol=rtol,
                    atol=atol_scale * max(abs(v0), abs(K)),
                    events=blow_event, dense_output=True)
    return sol.sol(np.linspace(t0, sol.t[-1], num))[0]


@pytest.mark.parametrize("K, p", [(7116.94, 0.2), (733645.9, 0.4),
                                  (1e4, 0.0), (1e6, 0.0)])
def test_shoot_matches_scipy_dop853(ref_problem, K, p):
    mine = solver.shoot(ref_problem, K, p, num=1200).data.v
    theirs = _scipy_shoot(ref_problem, K, p)
    assert np.max(np.abs(mine - theirs)) <= 1e-8 * np.max(np.abs(theirs))


def test_shoot_guard_matches_scipy_event(ref_params):
    # with b = -10 at the origin the nonlinearity pushes v away from 0 and
    # it blows up inside the ball: both integrators stop at the guard
    problem = EuclideanProblem(ref_params, domain_radius=0.5,
                               b_scale=-10.0 / b_origin(5, 1.0))
    prof = solver.shoot(problem, 1e4, 0.2, num=50)
    assert prof.trajectory.diverged and prof.data.r[-1] < 0.1
    theirs = _scipy_shoot(problem, 1e4, 0.2, num=50)
    assert np.max(np.abs(prof.data.v - theirs)) <= \
        1e-8 * np.max(np.abs(theirs))


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.exp(x) - 10.0, 5.0, -1.0),
])
def test_brent_takes_the_iterates_of_scipy_brentq(f, a, b):
    mine, theirs = [], []

    def logged(calls):
        def g(x):
            calls.append(x)
            return f(x)
        return g

    root = ode._brent(logged(mine), a, b, xtol=1e-12)
    scipy_root, info = brentq(logged(theirs), a, b, xtol=1e-12,
                              full_output=True)
    assert root == scipy_root
    assert mine == theirs and len(mine) == info.function_calls


def test_brent_rejects_a_bracket_without_a_sign_change():
    with pytest.raises(ValueError):
        ode._brent(lambda x: x * x + 1.0, -1.0, 1.0)


def test_brent_failures_are_solver_errors():
    # a jump has no root to converge on, and xtol = rtol = 0 leave no
    # tolerance to stop at: the 100 steps run out
    with pytest.raises(NotConverged):
        ode._brent(lambda x: -1.0 if x < 0.3 else 1.0, 0.0, 1.0,
                   xtol=0.0, rtol=0.0)
    with pytest.raises(NoSignChange) as err:
        ode._brent(lambda x: x * x + 1.0, -1.0, 1.0)
    assert isinstance(err.value, SolverError)

"""The scalar DOP853 integrator and Brent's root of hardyball.ode, checked
against scipy's implementations, which they port, and against closed
forms."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_dop853
from scipy.optimize import brentq

from hardyball import ode, solver
from hardyball.bridge import EuclideanProblem


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
    from 0.0: the order the compiled rows must keep."""
    sv = sw = 0.0
    for j, a in row:
        sv += a * kv[j]
        sw += a * kw[j]
    return sv, sw


def test_compiled_rows_give_the_term_by_term_floats(rng):
    assert [(s, c) for s, c, _ in ode._STEP + ode._DENSE] == \
        [(s, c) for s, (c, _) in enumerate(ode._STAGES, start=1)]
    assert [s for s, _, _ in ode._STEP] == list(range(1, 13))
    pairs = ([(row, fn) for (_, row), (_, _, fn) in
              zip(ode._STAGES, ode._STEP + ode._DENSE)]
             + [(ode._E5_ROW, ode._E5_SUM), (ode._E3_ROW, ode._E3_SUM)]
             + list(zip(ode._D_ROWS, ode._D_SUMS)))
    for _ in range(1000):
        # stage vectors with magnitudes over 16 decades, so that rounding
        # differs between summation orders
        kv, kw = (list(rng.standard_normal(16)
                       * 10.0 ** rng.integers(-8, 8, 16)) for _ in "vw")
        for row, fn in pairs:
            sv, sw = fn(kv, kw)
            want_v, want_w = _summed_term_by_term(row, kv, kw)
            assert sv == want_v and sw == want_w


def _cosh_rhs(t, v, w):
    return w, v


@pytest.mark.parametrize("t1", [5.0, -5.0])
def test_dense_output_reproduces_cosh_and_sinh(t1):
    # v'' = v from (1, 0): v = cosh t, v' = sinh t, forward and backward
    sol = ode._dop853(_cosh_rhs, 0.0, t1, 1.0, 0.0, rtol=1e-12, atol=1e-14)
    assert sol.t_end == t1 and not sol.diverged
    t = np.linspace(0.0, t1, 1001)
    v, w = sol(t)
    assert np.max(np.abs(v - np.cosh(t)) / np.cosh(t)) <= 1e-10
    assert np.max(np.abs(w - np.sinh(t)) / np.cosh(t)) <= 1e-10
    # every attempt makes 12 evaluations, every accepted step 3 more for
    # its interpolant; the start makes 2
    assert sol.nfev == 2 + 12 * (sol.steps + sol.rejected) + 3 * sol.steps


def test_guard_stops_where_v_reaches_it():
    guard = 1e3
    sol = ode._dop853(_cosh_rhs, 0.0, 20.0, 1.0, 0.0, rtol=1e-13,
                      atol=1e-15, guard=guard)
    assert sol.diverged
    assert sol.t_end == pytest.approx(math.acosh(guard), abs=1e-12)
    v, _ = sol(np.array([sol.t_end]))
    assert v[0] == pytest.approx(guard, rel=1e-11)


def _scipy_shoot(params, problem, K, p, num=1200, rtol=1e-11,
                 atol_scale=1e-13):
    """The shoot as it ran on scipy's solve_ivp, for the comparison."""
    R = problem.domain_radius
    r0 = 1e-5 * R
    v0, dv0 = solver.frobenius_init(params, problem, K, r0, p)
    guard = 1e12 * max(abs(K), abs(v0), 1.0)
    rhs = solver._rhs_factory(params, problem, p)

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
def test_shoot_matches_scipy_dop853(ref_params, ref_problem, K, p):
    mine = solver.shoot(ref_params, ref_problem, K, p, num=1200).data.v
    theirs = _scipy_shoot(ref_params, ref_problem, K, p)
    assert np.max(np.abs(mine - theirs)) <= 1e-8 * np.max(np.abs(theirs))


def test_shoot_guard_matches_scipy_event(ref_params):
    # with b = -10 the nonlinearity pushes v away from 0 and it blows up
    # inside the ball: both integrators stop at the guard
    problem = EuclideanProblem(ref_params, domain_radius=0.5,
                               b_spec=lambda r: -10.0)
    prof = solver.shoot(ref_params, problem, 1e4, 0.2, num=50)
    assert prof.diverged and prof.data.r[-1] < 0.1
    theirs = _scipy_shoot(ref_params, problem, 1e4, 0.2, num=50)
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

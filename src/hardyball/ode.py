"""The solver's scalar kernels in plain floats, where numpy's per-call
overhead outweighs the arithmetic of a 2-component system: DOP853 [Dormand &
Prince 1980; Hairer, Norsett & Wanner, Solving ODEs I, II.10; Hairer's
dop853.f] with dense output and a terminal guard on |v|, and Brent's root
[Brent 1973].  Both port scipy's (DOP853's tableau, err5/err3 norm, step
control and initial step; brentq.c) and take its steps and iterates; the
coefficients are scipy's (BSD-3-Clause, (c) the SciPy Developers)."""

from __future__ import annotations

import math
import sys

import numpy as np

_EPS = sys.float_info.epsilon
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1.0 / 8.0      # -1 / (error estimator order 7 + 1)

# the nodes C[1:] of stages 1..15; 13..15 are the dense output's
_C = (0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
      0.7777777777777778)
# the nonzero A[s, j] of rows s = 1..15 (row 12 is B): columns, then values
_A_COLS = ((0,), (0, 1), (0, 2), (0, 2, 3), (0, 3, 4), (0, 3, 4, 5),
           (0, 3, 4, 5, 6), (0, 3, 4, 5, 6, 7), (0, 3, 4, 5, 6, 7, 8),
           (0, 3, 4, 5, 6, 7, 8, 9), (0, 3, 4, 5, 6, 7, 8, 9, 10),
           (0, 5, 6, 7, 8, 9, 10, 11), (0, 6, 7, 8, 9, 10, 11, 12),
           (0, 5, 6, 7, 10, 11, 12, 13), (0, 5, 6, 7, 8, 12, 13, 14))
_A = (0.05260015195876773, 0.0197250569845379, 0.0591751709536137,
    0.02958758547680685, 0.08876275643042054, 0.2413651341592667,
    -0.8845494793282861, 0.924834003261792, 0.037037037037037035,
    0.17082860872947386, 0.12546768756682242, 0.037109375,
    0.17025221101954405, 0.06021653898045596, -0.017578125,
    0.03709200011850479, 0.17038392571223998, 0.10726203044637328,
    -0.015319437748624402, 0.008273789163814023, 0.6241109587160757,
    -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996, 0.47766253643826434,
    -2.4881146199716677, -0.590290826836843, 21.230051448181193,
    15.279233632882423, -33.28821096898486, -0.020331201708508627,
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505,
    2.4936055526796523, -3.0467644718982196, 2.273310147516538,
    -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063,
    12.360567175794303, 0.6433927460157636, 0.054293734116568765,
    4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259, 0.056167502283047954, 0.25350021021662483,
    -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
    0.00820105229563469, 0.007567897660545699, -0.008298, 0.03183464816350214,
    0.028300909672366776, 0.053541988307438566, -0.05492374857139099,
    -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
    0.1413124436746325, -0.42889630158379194, -4.697621415361164,
    7.683421196062599, 4.06898981839711, 0.3567271874552811,
    -0.0013990241651590145, 2.9475147891527724, -9.15095847217987)
# the nonzero entries of E5 and E3, on the columns of B
_E5 = (0.01312004499419488, -1.2251564463762044, -0.4957589496572502,
       1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
       0.08192320648511571, -0.022355307863886294)
_E3 = (-0.18980075407240762, 4.450312892752409, 1.8915178993145003,
       -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
       0.20136540080403034, 0.02265179219836082)
# the four rows of D (interpolant coefficients 3..6), on columns 0, 5..15
_D = ((-8.428938276109013, 0.5667149535193777, -3.0689499459498917,
       2.38466765651207, 2.117034582445028, -0.871391583777973,
       2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
       18.148505520854727, -9.194632392478356, -4.436036387594894),
      (10.427508642579134, 242.28349177525817, 165.20045171727028,
       -374.5467547226902, -22.113666853125306, 7.733432668472264,
       -30.674084731089398, -9.332130526430229, 15.697238121770845,
       -31.139403219565178, -9.35292435884448, 35.81684148639408),
      (19.985053242002433, -387.0373087493518, -189.17813819516758,
       527.8081592054236, -11.57390253995963, 6.8812326946963,
       -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
       -60.19669523126412, 84.32040550667716, 11.99229113618279),
      (-25.69393346270375, -154.18974869023643, -231.5293791760455,
       357.6391179106141, 93.40532418362432, -37.45832313645163,
       104.0996495089623, 29.8402934266605, -43.53345659001114,
       96.32455395918828, -39.17726167561544, -149.72683625798564))

# rows as (column, coefficient) pairs; per stage, its node and its row
_values = iter(_A)
_STAGES = tuple((c, tuple((j, next(_values)) for j in cols))
                for c, cols in zip(_C, _A_COLS))
_E5_ROW, _E3_ROW = (tuple(zip(_A_COLS[11], e)) for e in (_E5, _E3))
_D_ROWS = tuple(tuple(zip((0, *range(5, 16)), row)) for row in _D)


def _compiled(row):
    """The row's sum_j a_j k_j for both components as one straight-line
    callable (kv, kw) -> (sv, sw): the terms added to 0.0 from the left."""
    sums = ("0.0" + "".join(f" + {a!r} * k{x}[{j}]" for j, a in row)
            for x in "vw")
    return eval("lambda kv, kw: ({}, {})".format(*sums))


# per stage, its index, its node and its compiled row: the step's stages
# 1..12, then the interpolant's 13..15
_SUMS = tuple((s, c, _compiled(row))
              for s, (c, row) in enumerate(_STAGES, start=1))
_STEP, _DENSE = _SUMS[:12], _SUMS[12:]
_E5_SUM, _E3_SUM = _compiled(_E5_ROW), _compiled(_E3_ROW)
_D_SUMS = tuple(map(_compiled, _D_ROWS))


def _interpolate(x, F, y_old):
    """The DOP853 interpolant at the fractions x of a step, for floats or
    arrays: scipy's Horner scheme in x and 1 - x over the coefficients F."""
    y = 0.0
    for k in range(6, -1, -1):
        y = (y + F[k]) * (x if k % 2 == 0 else 1.0 - x)
    return y + y_old


class _Trajectory:
    """An integration: its step ends ``ts`` (the last is the guard's time if
    ``diverged``), counters, and rows (t_old, h, v_old, w_old, F_v, F_w)."""

    def __init__(self, ts, pieces, diverged, nfev, steps, rejected):
        self.ts, self.pieces = np.array(ts), np.array(pieces)
        self.t_end, self.diverged = ts[-1], diverged
        self.nfev, self.steps, self.rejected = nfev, steps, rejected

    def __call__(self, t):
        """(v, w) at the times t, in one vectorised pass (as OdeSolution)."""
        t = np.asarray(t, dtype=float)
        sign = 1.0 if self.ts[-1] >= self.ts[0] else -1.0
        seg = np.searchsorted(sign * self.ts, sign * t) - 1
        p = self.pieces[np.clip(seg, 0, len(self.pieces) - 1)]
        x = (t - p[:, 0]) / p[:, 1]
        return (_interpolate(x, p[:, 4:11].T, p[:, 2]),
                _interpolate(x, p[:, 11:18].T, p[:, 3]))


def _dop853(rhs, t0, t1, v0, w0, rtol, atol, guard=math.inf):
    """Integrate from (v0, w0) at t0 to t1, forward or backward.  Stop where
    |v| reaches ``guard`` (on the step's interpolant) or, as scipy does, when
    the step falls below 10 ulp of t (short of t1, not diverged)."""
    d = 1.0 if t1 >= t0 else -1.0
    span = abs(t1 - t0)
    fv, fw = rhs(t0, v0, w0)
    # the initial step of scipy's select_initial_step (RMS norms)
    sv, sw = atol + abs(v0) * rtol, atol + abs(w0) * rtol
    d0 = math.sqrt(((v0 / sv) ** 2 + (w0 / sw) ** 2) / 2.0)
    d1 = math.sqrt(((fv / sv) ** 2 + (fw / sw) ** 2) / 2.0)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    gv, gw = rhs(t0 + h0 * d, v0 + h0 * d * fv, w0 + h0 * d * fw)
    d2 = math.sqrt((((gv - fv) / sv) ** 2 + ((gw - fw) / sw) ** 2) / 2.0) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else
          (0.01 / max(d1, d2)) ** (1.0 / 8.0))
    h_abs = min(100.0 * h0, h1, span)

    kv, kw = [0.0] * 16, [0.0] * 16
    t, v, w, ts, pieces = t0, v0, w0, [t0], []
    nfev, steps, rejected, diverged = 2, 0, 0, False
    while d * (t - t1) < 0.0 and not diverged:
        min_step = 10.0 * abs(math.nextafter(t, d * math.inf) - t)
        h_abs = max(h_abs, min_step)
        retried = False
        kv[0], kw[0] = fv, fw
        while h_abs >= min_step:
            t_new = t + h_abs * d
            if d * (t_new - t1) > 0.0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            try:
                for s, c, row in _STEP:
                    sv, sw = row(kv, kw)
                    # after stage 12, (vs, ws) is the step's solution
                    vs, ws = v + sv * h, w + sw * h
                    nfev += 1
                    kv[s], kw[s] = rhs(t + c * h, vs, ws)
                scale_v = atol + max(abs(v), abs(vs)) * rtol
                scale_w = atol + max(abs(w), abs(ws)) * rtol
                e5v, e5w = _E5_SUM(kv, kw)
                e3v, e3w = _E3_SUM(kv, kw)
                n5 = (e5v / scale_v) ** 2 + (e5w / scale_w) ** 2
                n3 = (e3v / scale_v) ** 2 + (e3w / scale_w) ** 2
                err = (0.0 if n5 == 0.0 and n3 == 0.0 else
                       h_abs * n5 / math.sqrt((n5 + 0.01 * n3) * 2.0))
            except OverflowError:   # a float power overflowed in a stage
                err = math.inf
            if err < 1.0:
                factor = (_MAX_FACTOR if err == 0.0 else
                          min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT))
                h_abs *= min(1.0, factor) if retried else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
            retried = True
            rejected += 1
        else:
            break   # the step size underflowed
        steps += 1
        for s, c, row in _DENSE:
            sv, sw = row(kv, kw)
            nfev += 1
            kv[s], kw[s] = rhs(t + c * h, v + sv * h, w + sw * h)
        dv, dw = vs - v, ws - w
        Fv = [dv, h * fv - dv, 2.0 * dv - h * (kv[12] + fv)]
        Fw = [dw, h * fw - dw, 2.0 * dw - h * (kw[12] + fw)]
        for row in _D_SUMS:
            sv, sw = row(kv, kw)
            Fv.append(h * sv)
            Fw.append(h * sw)
        pieces.append((t, h, v, w, *Fv, *Fw))
        if abs(vs) >= guard:
            t_new = _brent(lambda x: guard - abs(_interpolate(
                (x - t) / h, Fv, v)), t, t_new, xtol=4 * _EPS, rtol=4 * _EPS)
            diverged = True
        ts.append(t_new)
        t, v, w, fv, fw = t_new, vs, ws, kv[12], kw[12]
    return _Trajectory(ts, pieces, diverged, nfev, steps, rejected)


def _brent(f, a, b, xtol=1e-12, rtol=4 * _EPS, maxiter=100):
    """A root of f in [a, b] to xtol + rtol |x|: scipy's brentq.c."""
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:    # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:               # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / \
                    (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry     # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method did not converge in {maxiter} steps")

"""Sampled radial functions: the not-a-knot cubic spline in log r, the
log-grid quadrature and derivative stencils, and ProfileData."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GridError(ValueError):
    pass


class ExtrapolationError(ValueError):
    """Requested radii fall outside the support of a sampled profile."""


class CubicSpline:
    """Not-a-knot cubic spline through (x, y), x strictly increasing with
    at least 4 knots.

    ``c[:, i]`` holds the coefficients of d^3, d^2, d and 1 on
    [x[i], x[i+1]], d = t - x[i].  The slopes solve the not-a-knot
    tridiagonal system by the Thomas algorithm (no pivoting; the interior
    rows are diagonally dominant), and the coefficients,
    evaluation and integral repeat the arithmetic of
    scipy.interpolate.CubicSpline, so both give the same bits wherever
    LAPACK's tridiagonal solver does not pivot (log-uniform knots among
    them).  Outside [x[0], x[-1]] the end pieces extrapolate."""

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or len(x) < 4:
            raise GridError("a spline needs matching 1-d x, y with >= 4 knots")
        dx = np.diff(x)
        if not np.all(dx > 0):
            raise GridError("spline knots must be strictly increasing")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise GridError("non-finite spline data")
        slope = np.diff(y) / dx
        # rows of the slope system: sub[i] at (i+1, i), diag[i], sup[i] at
        # (i, i+1); the first and last rows are the not-a-knot conditions
        h, m = dx.tolist(), slope.tolist()
        d0, d1 = float(x[2] - x[0]), float(x[-1] - x[-3])
        diag = [h[1], *(2 * (dx[:-1] + dx[1:])).tolist(), h[-2]]
        sup = [d0, *h[:-1]]
        sub = [*h[1:], d1]
        rhs = [((h[0] + 2 * d0) * h[1] * m[0] + h[0] * h[0] * m[1]) / d0,
               *(3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])).tolist(),
               (h[-1] * h[-1] * m[-2] + (2 * d1 + h[-1]) * h[-2] * m[-1])
               / d1]
        # forward elimination, then back substitution, in plain floats
        piv, acc = diag[0], rhs[0]
        pivots, accs = [piv], [acc]
        for lo, up, dg, rh in zip(sub, sup, diag[1:], rhs[1:]):
            f = lo / piv
            piv = dg - f * up
            acc = rh - f * acc
            pivots.append(piv)
            accs.append(acc)
        x_next = acc / piv
        s = [x_next]
        for acc, up, piv in zip(accs[-2::-1], sup[::-1], pivots[-2::-1]):
            x_next = (acc - up * x_next) / piv
            s.append(x_next)
        s = np.array(s[::-1])
        # Hermite form from the values and slopes
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x, self.y = x, y
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))

    def __call__(self, t, nu: int = 0):
        """Values (nu = 0) or first derivatives (nu = 1) at t."""
        t = np.asarray(t, dtype=float)
        return self.on_pieces(self.piece_of(t), t, nu)

    def piece_of(self, t) -> np.ndarray:
        """Index i of the piece that evaluates t: x[i] <= t < x[i+1], the
        last piece closed, the end pieces extended outward."""
        return np.clip(np.searchsorted(self.x, t, side="right") - 1,
                       0, len(self.x) - 2)

    def on_pieces(self, i, t, nu: int = 0):
        """__call__ with the pieces i of the points t already known (i may
        broadcast against t, e.g. one piece per row)."""
        d = t - self.x[i]
        c0, c1, c2, c3 = np.take(self.c, i, axis=1)
        if nu == 0:
            return c3 + c2 * d + c1 * (d * d) + c0 * (d * d * d)
        if nu == 1:
            return c2 + c1 * d * 2.0 + c0 * (d * d) * 3.0
        raise ValueError("only nu = 0 and nu = 1 are supported")

    def integral(self) -> float:
        """Integral over [x[0], x[-1]]: the antiderivative of each piece at
        its width, summed from left to right."""
        h = np.diff(self.x)
        c0, c1, c2, c3 = self.c
        h2 = h * h
        h3 = h2 * h
        pieces = (c3 * h + c2 * h2 * 0.5 + c1 * h3 * (1.0 / 3.0)
                  + c0 * (h3 * h) * 0.25)
        return float(np.cumsum(pieces)[-1])

    def roots(self) -> np.ndarray:
        """Sorted real roots in [x[0], x[-1]].

        A piece is skipped when its constant term outweighs the rest on the
        whole interval (it cannot reach zero), or when it stays below 1e-12
        of the largest knot value (the ringing of samples clipped to zero);
        each remaining piece is solved as a cubic in d / h."""
        h = np.diff(self.x)
        c0, c1, c2, c3 = self.c
        rest = np.abs(c0) * h ** 3 + np.abs(c1) * h * h + np.abs(c2) * h
        reach = np.abs(c3) <= rest
        tiny = np.abs(c3) + rest <= 1e-12 * np.max(np.abs(self.y))
        out = []
        for i in np.flatnonzero(reach & ~tiny):
            hi = h[i]
            for z in np.roots([c0[i] * hi ** 3, c1[i] * hi * hi, c2[i] * hi,
                               c3[i]]):
                if abs(z.imag) <= 1e-10 and -1e-12 <= z.real <= 1.0 + 1e-12:
                    out.append(self.x[i] + min(max(z.real, 0.0), 1.0) * hi)
        return np.unique(out)


# the spline integral's weights at the first 32 of 96 unit knots, each the
# integral of the not-a-knot spline through a unit vector (CubicSpline's,
# held as literals); further in they are 1 to within (2 - sqrt 3)^32
_END_WEIGHTS = np.array([
    0.3397791890991355, 1.2817664872069163, 0.8218299966680126,
    1.0717967697244914, 0.9807621135331597, 1.005154776142872,
    0.9986187818953541, 1.0003700962757112, 0.9999008330018017,
    1.0000265717170829, 0.9999928801298663, 1.000001907763452,
    0.9999994888163237, 1.0000001369712526, 0.9999999632986635,
    1.000000009834093, 0.9999999973649626, 1.0000000007060559,
    0.9999999998108128, 1.0000000000506921, 0.9999999999864169,
    1.000000000003639, 0.9999999999990247, 1.000000000000261,
    0.9999999999999297, 1.0000000000000184, 0.9999999999999948,
    1.000000000000001, 0.9999999999999994, 0.9999999999999999,
    0.9999999999999999, 0.9999999999999999])


def spline_integral(t, values) -> float:
    """Integral over [t[0], t[-1]] of the not-a-knot cubic spline through
    (t, values): the quadrature of every sampled radial integral in log r.
    On 96 or more finite samples at knots uniform to 1e-12, it is h times
    the sum of the samples with the end weights at both ends [de Boor
    1978]; other grids build the spline."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.ndim == 1 and len(t) >= 96 and y.shape == t.shape \
            and np.all(np.isfinite(y)):
        h = (t[-1] - t[0]) / (len(t) - 1)
        if h > 0.0 and np.all(np.abs(np.diff(t) - h) <= 1e-12 * h):
            return float(h * (np.sum(y[32:-32])
                              + _END_WEIGHTS @ (y[:32] + y[:-33:-1])))
    return CubicSpline(t, y).integral()


def log_derivative_matrix_apply(t: np.ndarray, values: np.ndarray) -> np.ndarray:
    """4th-order finite-difference d/dt on a uniform grid t, one-sided at ends."""
    h = t[1] - t[0]
    if not np.allclose(np.diff(t), h, rtol=1e-8):
        raise GridError("derivative stencils require a log-uniform grid")
    v = values
    d = np.empty_like(v)
    d[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
    # 4th-order one-sided stencils
    c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    d[0] = np.dot(c, v[:5]) / h
    d[1] = np.dot(c, v[1:6]) / h
    d[-1] = -np.dot(c, v[-5:][::-1]) / h
    d[-2] = -np.dot(c, v[-6:-1][::-1]) / h
    return d


def _sign_changes(v: np.ndarray, sup: float) -> int:
    """Sign changes along v, skipping samples at or below 1e-13 * sup."""
    return int(np.count_nonzero(np.diff(np.sign(v[np.abs(v) > 1e-13 * sup]))))


@dataclass
class ProfileData:
    """Samples v (and, where known, dv/dr) of a radial function at strictly
    increasing radii r > 0: the one sampled-radial type of the lab, for
    solver output, bubbles and audit samples alike.

    It carries no r < 1 bound, because bubbles live beyond the unit ball;
    the hyperbolic integrals enforce the ball."""

    r: np.ndarray
    v: np.ndarray
    dv: np.ndarray = None

    _spline: CubicSpline = field(default=None, init=False, repr=False,
                                  compare=False)

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.r.ndim != 1 or len(self.r) < 4:
            raise GridError("need 1-d samples at 4 or more radii")
        arrays = [self.v]
        if self.dv is not None:
            self.dv = np.asarray(self.dv, dtype=float)
            arrays.append(self.dv)
        if any(a.shape != self.r.shape for a in arrays):
            raise GridError("samples and radii must have equal length")
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise GridError("non-finite sample values")
        if not (self.r[0] > 0.0 and np.all(np.diff(self.r) > 0.0)):
            raise GridError("radii must be positive and strictly increasing")

    def spline(self) -> CubicSpline:
        """Not-a-knot spline of v in log r, built once."""
        if self._spline is None:
            self._spline = CubicSpline(np.log(self.r), self.v)
        return self._spline

    def __call__(self, r, atol: float = 0.0):
        """Evaluate at radii r; outside the samples the profile must be
        flat to within atol (compactly supported samples), else this is an
        error."""
        r = np.asarray(r, dtype=float)
        lo, hi = self.r[0], self.r[-1]
        below, above = r < lo, r > hi
        if below.any() and abs(self.v[0]) > atol:
            raise ExtrapolationError(
                f"radius below the samples ({r[below].min():g} < {lo:g})")
        if above.any() and abs(self.v[-1]) > atol:
            raise ExtrapolationError(
                f"radius above the samples ({r[above].max():g} > {hi:g})")
        out = self.spline()(np.log(np.clip(r, lo, hi)))
        out = np.where(below, self.v[0], out)
        return np.where(above, self.v[-1], out)

    def node_count(self) -> int:
        """Interior sign changes; the boundary sample is left out."""
        return _sign_changes(self.v[:-1], np.max(np.abs(self.v)))

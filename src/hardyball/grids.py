"""Log-graded radial grids and sampled radial functions."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GridError(ValueError):
    pass


class ExtrapolationError(ValueError):
    """Requested radii fall outside the support of a sampled profile."""


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radii in (0, 1), geometrically spaced by default.

    The grid lives on [inner_cutoff, outer_cutoff]; all quadrature and
    differentiation stay inside this interval (no extrapolation).
    """

    nodes: np.ndarray
    inner_cutoff: float
    outer_cutoff: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or len(nodes) < 8:
            raise GridError("need a 1-d grid with at least 8 nodes")
        if not np.all(np.diff(nodes) > 0):
            raise GridError("grid nodes must be strictly increasing")
        if not (0.0 < self.inner_cutoff <= nodes[0]):
            raise GridError("inner_cutoff must satisfy 0 < r0 <= nodes[0]")
        if not (nodes[-1] <= self.outer_cutoff < 1.0):
            raise GridError("outer_cutoff must satisfy nodes[-1] <= R < 1")

    @classmethod
    def geometric(cls, r0: float, R: float, num: int) -> "RadialGrid":
        """Log-uniform grid on [r0, R]; resolves power-law behavior near 0."""
        if not (0.0 < r0 < R < 1.0):
            raise GridError("need 0 < r0 < R < 1")
        nodes = np.geomspace(r0, R, num)
        nodes[0], nodes[-1] = r0, R
        return cls(nodes, r0, R)

    @property
    def log_nodes(self) -> np.ndarray:
        return np.log(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)


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


def spline_integral(t, values) -> float:
    """Integral over [t[0], t[-1]] of the not-a-knot cubic spline through
    (t, values): the quadrature of every sampled radial integral in log r."""
    return CubicSpline(t, values).integral()


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


@dataclass
class RadialFunction:
    """Samples of a radial function on a RadialGrid."""

    grid: RadialGrid
    values: np.ndarray

    _spline: CubicSpline = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        self.values = values
        if values.shape != self.grid.nodes.shape:
            raise GridError("values and grid nodes must have equal length")
        if not np.all(np.isfinite(values)):
            raise GridError("non-finite sample values")

    def spline(self) -> CubicSpline:
        if self._spline is None:
            self._spline = CubicSpline(self.grid.log_nodes, self.values)
        return self._spline

    def __call__(self, r, atol: float = 0.0):
        """Evaluate at radii r; outside the grid the profile must be flat to
        within atol (compactly supported samples), else this is an error."""
        r = np.asarray(r, dtype=float)
        lo, hi = self.grid.nodes[0], self.grid.nodes[-1]
        below, above = r < lo, r > hi
        if below.any() and abs(self.values[0]) > atol:
            raise ExtrapolationError(
                f"radius below grid support ({r[below].min():g} < {lo:g})")
        if above.any() and abs(self.values[-1]) > atol:
            raise ExtrapolationError(
                f"radius above grid support ({r[above].max():g} > {hi:g})")
        out = self.spline()(np.log(np.clip(r, lo, hi)))
        out = np.where(below, self.values[0], out)
        out = np.where(above, self.values[-1], out)
        return out

    def derivative_values(self) -> np.ndarray:
        """dv/dr at the nodes (4th-order differences in log r)."""
        dt = log_derivative_matrix_apply(self.grid.log_nodes, self.values)
        return dt / self.grid.nodes

    def with_values(self, values) -> "RadialFunction":
        return RadialFunction(self.grid, values)

    def node_count(self) -> int:
        """Number of strict sign changes of the samples."""
        s = np.sign(self.values[np.abs(self.values) > 0])
        if len(s) == 0:
            return 0
        return int(np.count_nonzero(np.diff(s) != 0))

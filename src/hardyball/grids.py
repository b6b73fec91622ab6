"""Log-graded radial grids and sampled radial functions."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline


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

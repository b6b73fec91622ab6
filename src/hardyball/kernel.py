"""Radial machinery of the Poincare ball: singular kernel, weights,
scaling, and weighted radial integrals."""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from .grids import RadialFunction, log_derivative_matrix_apply

# Gauss-Legendre rule on [-1, 1], held as pairs (1 - x_i, w_i) so that the
# outer panel of G forms 1 - t without cancellation
_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
_GL_RULE = tuple(zip((1.0 - _GL_X).tolist(), _GL_W.tolist()))

_NEWTON_MAX = 50


class DomainError(ValueError):
    pass


class QuadratureError(RuntimeError):
    def __init__(self, message, estimate=None, error=None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


def sphere_area(n: int) -> float:
    """Area of the unit sphere in R^n (computed from the Gamma function)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def green_density(r, n: int):
    """Radial density of the fundamental solution on the ball."""
    if n < 3:
        raise DomainError("dimension must be >= 3")
    r = np.asarray(r, dtype=float)
    # r = 1 is admitted as the (zero) limit so that quadrature panels may
    # touch the outer endpoint
    if np.any(r <= 0.0) or np.any(r > 1.0):
        raise DomainError("radius must lie in (0, 1)")
    out = (1.0 - r * r) ** (n - 2) / r ** (n - 1)
    return float(out) if out.ndim == 0 else out


def _green_G_inner(r, n: int, log):
    """G on (0, 1/4]: the density expands binomially into the powers
    t^{2k+1-n}, each integrated exactly (t^{-1}, for even n, gives -ln r).
    Written for floats and arrays alike; ``log`` is math.log or np.log."""
    m = n - 2
    out = 0.0
    for k in range(m + 1):
        e = 2 * k + 2 - n
        term = -log(r) if e == 0 else (1.0 - r ** e) / e
        out = out + (-1) ** k * math.comb(m, k) * term
    return out


def _green_G_outer(r, n: int):
    """G on (1/4, 1): the binomial sum cancels as r grows, so integrate the
    density over [r, 1] with the fixed Gauss-Legendre rule, forming
    1 - t^2 as (1 - t)(1 + t).  Floats and arrays alike."""
    h = 0.5 * (1.0 - r)
    out = 0.0
    for one_minus_x, w in _GL_RULE:
        om = h * one_minus_x                    # 1 - t
        t = 1.0 - om
        out = out + w * (om * (1.0 + t)) ** (n - 2) / t ** (n - 1)
    return h * out


def green_G(r, n: int):
    """G(r): integral of the kernel density from r to 1.  Strictly
    decreasing, blows up at 0, vanishes at 1.

    Exact binomial sum for r <= 1/4 (where it amplifies rounding by at most
    ~3 for n <= 8), a 24-point Gauss-Legendre rule on [r, 1] beyond; both
    match a 30-digit quadrature to ~1e-14 relative for n <= 12.  Scalars
    are evaluated with plain floats and return a float; arrays are
    evaluated elementwise by the same formulas."""
    if n < 3:
        raise DomainError("dimension must be >= 3")
    if np.ndim(r) == 0:
        r = float(r)
        if not (0.0 < r < 1.0):
            raise DomainError("radius must lie in (0, 1)")
        return _green_G_inner(r, n, math.log) if r <= 0.25 \
            else _green_G_outer(r, n)
    r = np.asarray(r, dtype=float)
    if not np.all((r > 0.0) & (r < 1.0)):
        raise DomainError("radius must lie in (0, 1)")
    out = np.empty_like(r)
    inner = r <= 0.25
    out[inner] = _green_G_inner(r[inner], n, np.log)
    out[~inner] = _green_G_outer(r[~inner], n)
    return out


def green_G_inverse(g, n: int):
    """Invert the monotone G by Newton steps on log G in x = log r, where
    d(log G)/dx = -r green_density / G.

    log G is concave in log r, so Newton iterates started right of the
    root decrease monotonically onto it.  The starts solve upper bounds of
    G: r^{2-n}/(n-2) on (0, 1), and 2 3^{n-2} (1-r)^{n-1}/(n-1) on
    [1/2, 1).  Scalars return a float; arrays are inverted elementwise."""
    scalar = np.ndim(g) == 0
    g = np.asarray(g, dtype=float)
    if not np.all(g > 0.0):
        raise DomainError("G value must be positive")
    with np.errstate(over="ignore", divide="ignore"):
        r0 = np.where(
            g >= green_G(0.5, n),
            np.minimum(((n - 2) * g) ** (-1.0 / (n - 2)), 0.5),
            1.0 - ((n - 1) * g / (2.0 * 3.0 ** (n - 2))) ** (1.0 / (n - 1)))
    if not np.all((r0 > 0.0) & (r0 < 1.0)):
        raise DomainError("G value outside the invertible range")
    x, target = np.log(r0), np.log(g)
    for _ in range(_NEWTON_MAX):
        r = np.exp(x)
        G = green_G(r, n)
        step = (np.log(G) - target) * G / (r * green_density(r, n))
        x = x + step
        if np.all(np.abs(step) <= 1e-14):
            break
    else:
        raise DomainError("Newton inversion of G did not converge")
    r = np.exp(x)
    return float(r) if scalar else r


def weight_V_p(r, n: int, p: float):
    """Singular weight attached to the exponent-p integral on the ball:
    f^2 (1 - r^2)^2 / (4 (n-2)^2 G^{(p+2)/2}) with f the kernel density.
    Scalars are evaluated with plain floats."""
    if p < 1:
        raise DomainError("exponent p must be >= 1")
    G = green_G(r, n)
    r = float(r) if np.ndim(r) == 0 else np.asarray(r, dtype=float)
    # f (1 - r^2) = ((1 - r^2) / r)^{n-1}
    return (((1.0 - r * r) / r) ** (2 * (n - 1))
            / (4.0 * (n - 2) ** 2 * G ** ((p + 2.0) / 2.0)))


def hyperbolic_scaling(u: RadialFunction, lam: float, n: int) -> RadialFunction:
    """u_lam(r) = lam^{-1/2} u(G^{-1}(lam G(r))), sampled on u's grid.

    Radii pulled back outside the grid are allowed only where the profile
    has decayed to (numerical) zero at the corresponding end.
    """
    if lam <= 0:
        raise DomainError("scaling parameter must be positive")
    if lam == 1.0:
        return u.with_values(u.values.copy())
    r = u.grid.nodes
    g = green_G(r, n)
    rho = green_G_inverse(lam * g, n)
    atol = 1e-12 * np.max(np.abs(u.values))
    vals = lam ** -0.5 * u(rho, atol=atol)
    return u.with_values(vals)


def hyperbolic_integral(w, u: RadialFunction, q: float, n: int,
                        rtol: float = 1e-10,
                        method: str = "adaptive") -> float:
    """Integral of w(r)|u|^q over the ball in the hyperbolic volume,
    reduced to a radial quadrature on the sample support.

    w is a callable weight (or None for weight 1).  method "adaptive" uses
    Gauss-Kronrod panels on the interpolant; "nodal" integrates the spline
    of the node-sampled integrand (vectorized weight, much faster on
    shared grids, accurate at the interpolation order)."""
    t = u.grid.log_nodes
    if method == "nodal":
        r = u.grid.nodes
        wi = np.ones_like(r) if w is None else np.asarray(w(r), dtype=float)
        conf = 2.0 / (1.0 - r * r)
        vals = wi * np.abs(u.values) ** q * r ** n * conf ** n
        return sphere_area(n) * CubicSpline(t, vals).integrate(t[0], t[-1])
    if method != "adaptive":
        raise DomainError(f"unknown quadrature method {method!r}")
    spline = u.spline()

    def integrand(ti):
        ri = math.exp(ti)
        ui = spline(ti)
        wq = 1.0 if w is None else w(ri)
        conf = 2.0 / (1.0 - ri * ri)
        # dr = r dt
        return wq * abs(ui) ** q * ri ** (n - 1) * conf ** n * ri

    val, err = quad(integrand, t[0], t[-1], epsabs=1e-300, epsrel=rtol,
                    limit=800)
    if err > max(1e-12, 1e-6 * abs(val)):
        raise QuadratureError("hyperbolic integral did not converge",
                              estimate=val, error=err)
    return sphere_area(n) * val


def hyperbolic_dirichlet_energy(u: RadialFunction, n: int, q: float = 2.0,
                                rtol: float = 1e-10,
                                method: str = "adaptive") -> float:
    """integral of |grad_B u|^q in the hyperbolic volume; for q=2 this is
    the squared energy norm."""
    t = u.grid.log_nodes
    du_dt = log_derivative_matrix_apply(t, u.values)
    if method == "nodal":
        r = u.grid.nodes
        gradB = 0.5 * (1.0 - r * r) * np.abs(du_dt / r)
        conf = 2.0 / (1.0 - r * r)
        vals = gradB ** q * r ** n * conf ** n
        return sphere_area(n) * CubicSpline(t, vals).integrate(t[0], t[-1])
    if method != "adaptive":
        raise DomainError(f"unknown quadrature method {method!r}")
    dspline = CubicSpline(t, du_dt)

    def integrand(ti):
        ri = math.exp(ti)
        du_dr = dspline(ti) / ri
        gradB = 0.5 * (1.0 - ri * ri) * abs(du_dr)
        conf = 2.0 / (1.0 - ri * ri)
        return gradB ** q * ri ** (n - 1) * conf ** n * ri

    val, err = quad(integrand, t[0], t[-1], epsabs=1e-300, epsrel=rtol,
                    limit=800)
    if err > max(1e-12, 1e-6 * abs(val)):
        raise QuadratureError("dirichlet energy quadrature did not converge",
                              estimate=val, error=err)
    return sphere_area(n) * val

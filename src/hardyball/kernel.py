"""Radial machinery of the Poincare ball: singular kernel, weights,
scaling, and weighted radial integrals."""

from __future__ import annotations

import math

import numpy as np

from .grids import CubicSpline, ProfileData, log_derivative_matrix_apply


# Gauss-Legendre rules on [-1, 1], ascending: leggauss's from
# numpy.polynomial, which mirrors them exactly, held as literals (their
# nodes and weights on (0, 1)) so that no command imports numpy.polynomial
def _gauss_legendre(x, w) -> tuple:
    return [-v for v in x[::-1]] + x, w[::-1] + w


# 24-point rule, held as pairs (1 - x_i, w_i) so that the outer panel of G
# forms 1 - t without cancellation
_GL_X, _GL_W = _gauss_legendre(
    [0.06405689286260563, 0.1911188674736163, 0.3150426796961634,
     0.4337935076260451, 0.5454214713888396, 0.6480936519369755,
     0.7401241915785544, 0.820001985973903, 0.8864155270044011,
     0.9382745520027328, 0.9747285559713095, 0.9951872199970213],
    [0.12793819534675202, 0.12583745634682825, 0.1216704729278033,
     0.11550566805372552, 0.10744427011596556, 0.09761865210411393,
     0.0861901615319532, 0.07334648141108016, 0.05929858491543636,
     0.04427743881741941, 0.02853138862893356, 0.01234122979998869])
_GL_RULE = tuple(zip([1.0 - x for x in _GL_X], _GL_W))

# 8-point rule for the panels of the hyperbolic integrals
_PANEL_X, _PANEL_W = map(np.array, _gauss_legendre(
    [0.18343464249564978, 0.525532409916329, 0.7966664774136267,
     0.9602898564975362],
    [0.36268378337836166, 0.3137066458778869, 0.22238103445337443,
     0.10122853629037706]))

_NEWTON_MAX = 50


class DomainError(ValueError):
    pass


def __getattr__(name):
    # kernel calls no quadrature routine; kernel.quad exists only for the
    # benchmark tracer (perfbench/child.py), which counts calls through it,
    # until the next benchmark change drops that wrap.  Resolved on first
    # access, so importing kernel loads no scipy.
    if name == "quad":
        from scipy.integrate import quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _green_G_inner(r, n: int):
    """G on (0, 1/4]: the density expands binomially into the powers
    t^{2k+1-n}, each integrated exactly (t^{-1}, for even n, gives -ln r)."""
    m = n - 2
    out = 0.0
    for k in range(m + 1):
        e = 2 * k + 2 - n
        term = -np.log(r) if e == 0 else (1.0 - r ** e) / e
        out = out + (-1) ** k * math.comb(m, k) * term
    return out


def _green_G_outer(r, n: int):
    """G on (1/4, 1): the binomial sum cancels as r grows, so integrate the
    density over [r, 1] with the fixed Gauss-Legendre rule, forming
    1 - t^2 as (1 - t)(1 + t)."""
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
    match a 30-digit quadrature to ~1e-14 relative for n <= 12.  A scalar
    returns a float."""
    if n < 3:
        raise DomainError("dimension must be >= 3")
    r = np.asarray(r, dtype=float)
    if not np.all((r > 0.0) & (r < 1.0)):
        raise DomainError("radius must lie in (0, 1)")
    out = np.empty_like(r)
    inner = r <= 0.25
    out[inner] = _green_G_inner(r[inner], n)
    out[~inner] = _green_G_outer(r[~inner], n)
    return float(out) if out.ndim == 0 else out


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


def hyperbolic_scaling(u: ProfileData, lam: float, n: int) -> ProfileData:
    """u_lam(r) = lam^{-1/2} u(G^{-1}(lam G(r))), sampled at u's radii.

    Radii pulled back outside the samples are allowed only where the
    profile has decayed to (numerical) zero at the corresponding end.
    """
    if lam <= 0:
        raise DomainError("scaling parameter must be positive")
    if lam == 1.0:
        return ProfileData(u.r, u.v.copy())
    rho = green_G_inverse(lam * green_G(u.r, n), n)
    atol = 1e-12 * np.max(np.abs(u.v))
    return ProfileData(u.r, lam ** -0.5 * u(rho, atol=atol))


def _panel_rule(t, n: int) -> tuple:
    """The panel rule on the panel ends t = log r, shared by every spline
    integrated over them: the pieces' midpoints, the nodes tq, the flat
    Gauss weights, and r, r^n and (2/(1-r^2))^n at the nodes.

    In t the volume is |S^{n-1}| (2/(1-r^2))^n r^n dt, singular at t = 0
    (r = 1).  Each panel is cut geometrically in its distance d = -t to
    r = 1, into the fewest pieces whose end distances differ by at most
    5/4, so no piece is wider than a quarter of its distance to the
    singularity; away from r = 1 nothing is cut.  The 8-point
    Gauss-Legendre rule runs on every piece: for q = 2 each piece's
    integrand is a degree-6 polynomial times an analytic weight, so the
    rule has converged.  Every end must lie inside the ball, 0 < r < 1,
    checked first, so samples beyond it raise DomainError and no warning."""
    if not t[-1] < 0.0:
        raise DomainError("hyperbolic integrals need samples with r < 1")
    d_near, d_far = -t[1:], -t[:-1]
    k = np.ceil(np.log(d_far / d_near) / math.log(1.25)).astype(int)
    k = k.clip(min=1)
    panel = np.repeat(np.arange(len(k)), k)
    j = np.arange(len(panel)) - np.repeat(np.cumsum(k) - k, k)
    ratio = (d_far / d_near)[panel] ** (1.0 / k[panel])
    b = -d_near[panel] * ratio ** j             # piece [b * ratio, b]
    h = 0.5 * b * (1.0 - ratio)                 # its half-width
    tq = (b - h)[:, None] + h[:, None] * _PANEL_X   # one row per piece
    r = np.exp(tq)
    return (b - h, tq, (h[:, None] * _PANEL_W).ravel(), r, r ** n,
            (2.0 / (1.0 - r * r)) ** n)


def _panel_sum(spline: CubicSpline, rule: tuple, q: float, n: int,
               w_nodes) -> float:
    """Integral of w|spline|^q on the panel rule, w given at its nodes (None
    for weight 1); no panel may straddle a root unless q is even."""
    mid, tq, wq, _, rn, ball = rule
    # every node of a piece lies in the knot interval of its midpoint
    knot = spline.piece_of(mid)[:, None]
    vals = np.abs(spline.on_pieces(knot, tq)) ** q * rn * ball
    if w_nodes is not None:
        vals = vals * w_nodes
    val = sphere_area(n) * float(np.dot(wq, vals.ravel()))
    if not math.isfinite(val):
        raise DomainError("hyperbolic integral is not finite")
    return val


def _panel_integral(spline: CubicSpline, q: float, n: int, w) -> float:
    """Integral of w(r)|spline(log r)|^q over the ball in the hyperbolic
    volume on the spline's knot range: the panel rule of the knots, cut at
    the spline's real roots unless q is even, so that |spline|^q is smooth
    inside each panel (CubicSpline.roots leaves out pieces below 1e-12 of
    the largest sample, whose share of the integral is below 1e-12^q).
    w is a vectorized weight, or None for weight 1."""
    t = spline.x
    if q % 2.0 != 0.0:
        t = np.union1d(t, spline.roots())
    rule = _panel_rule(t, n)
    return _panel_sum(spline, rule, q, n, None if w is None else w(rule[3]))


def _gradient_weight(r, q: float):
    """|grad_B u|^q / |du/dt|^q = ((1-r^2)/(2r))^q."""
    return (0.5 * (1.0 - r * r) / r) ** q


def hyperbolic_integral(w, u: ProfileData, q: float, n: int) -> float:
    """Integral of w(r)|u|^q over the ball in the hyperbolic volume, on the
    sample support: the cubic spline of u in t = log r, integrated by the
    panel rule of _panel_integral.  w is a vectorized weight (or None for
    weight 1)."""
    return _panel_integral(u.spline(), q, n, w)


def hyperbolic_dirichlet_energy(u: ProfileData, n: int,
                                q: float = 2.0) -> float:
    """integral of |grad_B u|^q in the hyperbolic volume; for q=2 this is
    the squared energy norm.  du/dt is taken at the nodes by 4th-order
    differences, splined in t and integrated by the panel rule of
    _panel_integral, weighted by _gradient_weight."""
    t = np.log(u.r)
    du_dt = CubicSpline(t, log_derivative_matrix_apply(t, u.v))
    return _panel_integral(du_dt, q, n, lambda r: _gradient_weight(r, q))

"""Geometry of the upper half-space model of real hyperbolic n-space.

Points are pairs (base, height) with base in R^(n-1) and height > 0.
Horoballs come in two flavours: Euclidean balls tangent to the boundary
at a base point, and the half-space above a fixed Euclidean height (the
horoball centered at the distinguished boundary point at infinity).
Geodesics are vertical lines or semicircles orthogonal to the boundary,
optionally restricted to an arclength parameter interval.

Every intersection / avoidance quantity below has a closed form obtained
by inverting the configuration at a boundary point, so no geodesic is
ever sampled.  All functions accept Fractions wherever a quantity can
stay rational (coordinates, radii, scale factors), which is what makes
the exact mode of the solvers possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

Vector = tuple
INF = float("inf")

# ---------------------------------------------------------------------------
# small vector helpers on plain tuples (Fraction-friendly)


def as_vector(x) -> Vector:
    """Coerce a scalar or sequence to a coordinate tuple."""
    if isinstance(x, tuple):
        return x
    if isinstance(x, list):
        return tuple(x)
    return (x,)


def vsub(a: Vector, b: Vector) -> Vector:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vscale(a: Vector, k) -> Vector:
    return tuple(k * x for x in a)


def vdot(a: Vector, b: Vector):
    return sum(x * y for x, y in zip(a, b))


def vnorm2(a: Vector):
    """Squared Euclidean norm; exact on Fraction input."""
    return sum(x * x for x in a)


def vnorm(a: Vector) -> float:
    return math.sqrt(vnorm2(a))


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class Point:
    """Interior point of the model: boundary coordinates plus height > 0."""

    base: Vector
    height: float

    def __post_init__(self):
        object.__setattr__(self, "base", as_vector(self.base))
        if not self.height > 0:
            raise ValueError("height must be positive")

    @property
    def dim(self) -> int:
        return len(self.base) + 1


@dataclass(frozen=True)
class TangentHoroball:
    """Horoball tangent to the boundary: the Euclidean ball of radius
    `radius` centered at (base, radius)."""

    base: Vector
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "base", as_vector(self.base))
        if not self.radius > 0:
            raise ValueError("radius must be positive")


@dataclass(frozen=True)
class AtInfinityHoroball:
    """The horoball centered at infinity: all points above `height`."""

    height: float

    def __post_init__(self):
        if not self.height > 0:
            raise ValueError("height must be positive")


Horoball = Union[TangentHoroball, AtInfinityHoroball]


@dataclass(frozen=True)
class VerticalGeodesic:
    """Vertical line over `foot`, parametrized by p(t) = (foot, e^t).

    Oriented upward: t -> +inf converges to the point at infinity.
    """

    foot: Vector
    param_range: tuple = (-INF, INF)

    def __post_init__(self):
        object.__setattr__(self, "foot", as_vector(self.foot))
        lo, hi = self.param_range
        if not lo <= hi:
            raise ValueError("empty parameter range")

    def point_at(self, t: float) -> Point:
        return Point(self.foot, math.exp(t))

    def restricted(self, lo: float, hi: float) -> "VerticalGeodesic":
        return VerticalGeodesic(self.foot, (lo, hi))


@dataclass(frozen=True)
class ArcGeodesic:
    """Semicircle with boundary endpoints a, b (a at t = -inf, b at +inf).

    Arclength parametrization p(t) = (m + rho*tanh(t)*u, rho*sech(t)) with
    m the Euclidean midpoint of [a, b], rho half the gap and u the unit
    vector from a to b; the apex sits at t = 0.
    """

    a: Vector
    b: Vector
    param_range: tuple = (-INF, INF)

    def __post_init__(self):
        object.__setattr__(self, "a", as_vector(self.a))
        object.__setattr__(self, "b", as_vector(self.b))
        if len(self.a) != len(self.b):
            raise ValueError("endpoint dimension mismatch")
        if all(x == y for x, y in zip(self.a, self.b)):
            raise ValueError("degenerate geodesic: equal endpoints")
        lo, hi = self.param_range
        if not lo <= hi:
            raise ValueError("empty parameter range")

    @property
    def midpoint(self) -> tuple:
        return tuple((float(x) + float(y)) / 2 for x, y in zip(self.a, self.b))

    @property
    def rho(self) -> float:
        return vnorm(vsub(_flv(self.b), _flv(self.a))) / 2

    @property
    def unit(self) -> tuple:
        d = vsub(_flv(self.b), _flv(self.a))
        return vscale(d, 1.0 / vnorm(d))

    def point_at(self, t: float) -> Point:
        m, rho, u = self.midpoint, self.rho, self.unit
        return Point(vadd(m, vscale(u, rho * math.tanh(t))),
                     rho / math.cosh(t))

    def restricted(self, lo: float, hi: float) -> "ArcGeodesic":
        return ArcGeodesic(self.a, self.b, (lo, hi))


Geodesic = Union[VerticalGeodesic, ArcGeodesic]


# ---------------------------------------------------------------------------
# basic metric quantities


def _flv(v: Vector) -> tuple:
    # the log/acosh closed forms return floats regardless, so shed any
    # exact coordinates up front instead of dragging Fractions through
    return tuple(map(float, v))


def hyperbolic_dist(p: Point, q: Point) -> float:
    """Hyperbolic distance arccosh(1 + (|db|^2 + dh^2) / (2 h_p h_q))."""
    db2 = vnorm2(vsub(_flv(p.base), _flv(q.base)))
    hp, hq = float(p.height), float(q.height)
    dh = hp - hq
    return math.acosh(1 + (db2 + dh * dh) / (2 * hp * hq))


def dist_alg_horoballs(h1: Horoball, h2: Horoball) -> float:
    """Signed distance between two horoballs along the geodesic joining
    their boundary points: positive iff disjoint, zero iff tangent,
    negative iff the open horoballs overlap."""
    if isinstance(h1, AtInfinityHoroball) and isinstance(h2, AtInfinityHoroball):
        raise ValueError("horoballs share the center at infinity")
    if isinstance(h1, AtInfinityHoroball):
        h1, h2 = h2, h1
    if isinstance(h2, AtInfinityHoroball):
        return math.log(float(h2.height) / (2 * float(h1.radius)))
    u2 = vnorm2(vsub(_flv(h1.base), _flv(h2.base)))
    if u2 == 0:
        raise ValueError("horoballs share their base point")
    return math.log(u2 / (4 * float(h1.radius) * float(h2.radius)))


def scale_horoball(h: Horoball, s) -> Horoball:
    """Scale by factor s = e^(-t): radius -> s*radius, cut height -> height/s.

    Exact when the inputs and s are rational; s in (0, 1] shrinks.
    """
    if not 0 < s:
        raise ValueError("scale factor must be positive")
    if isinstance(h, TangentHoroball):
        return TangentHoroball(h.base, h.radius * s)
    return AtInfinityHoroball(h.height / s)


def shrink(h: Horoball, t: float) -> Horoball:
    """Horoball at hyperbolic distance t inside h (t >= 0)."""
    if t < 0:
        raise ValueError("shrink time must be nonnegative")
    if t == 0:
        return h
    return scale_horoball(h, math.exp(-t))


def busemann_height(p: Point) -> float:
    """Busemann height with respect to the reference horosphere at
    Euclidean height 1: log of the Euclidean height."""
    return math.log(p.height)


def point_to_horoball_dist(p: Point, h: Horoball) -> float:
    """Signed hyperbolic distance to the horosphere; negative inside."""
    hp = float(p.height)
    if isinstance(h, AtInfinityHoroball):
        return math.log(float(h.height) / hp)
    u2 = vnorm2(vsub(_flv(p.base), _flv(h.base)))
    return -math.log(2 * float(h.radius) * hp / (u2 + hp * hp))


# ---------------------------------------------------------------------------
# penetration of geodesics into horoballs (closed forms)


def _depth_at(g: Geodesic, t: float, h: Horoball) -> float:
    return -point_to_horoball_dist(g.point_at(t), h)


def _full_line_peak(g: Geodesic, h: Horoball):
    """(argmax t*, peak depth) of the depth function over the full line.

    t* is None when the supremum sits at an infinite parameter (the
    geodesic converges to the tangency point of h, depth +inf, or to the
    point at infinity for the horoball at infinity).
    """
    if isinstance(g, VerticalGeodesic):
        if isinstance(h, AtInfinityHoroball):
            return None, INF                      # depth = t - log(height)
        u2 = vnorm2(vsub(_flv(g.foot), _flv(h.base)))
        if u2 == 0:
            return None, INF                      # runs into the base point
        u = math.sqrt(u2)
        return math.log(u), math.log(float(h.radius) / u)
    # arc
    rho = g.rho
    if isinstance(h, AtInfinityHoroball):
        return 0.0, math.log(rho / float(h.height))
    v = vsub(_flv(g.midpoint), _flv(h.base))
    A = vnorm2(v) + rho * rho
    B = 2 * rho * vdot(v, g.unit)
    disc = A * A - B * B
    if disc <= 0:
        # an endpoint of the arc is the base point of h (b if B < 0)
        return None, INF
    return math.atanh(-B / A), math.log(2 * float(h.radius) * rho / math.sqrt(disc))


def penetration_depth(g: Geodesic, h: Horoball) -> float:
    """Signed hyperbolic depth of the deepest point of g inside h,
    restricted to g.param_range; <= 0 means g avoids the open horoball.

    The depth along a geodesic is concave, so the restricted maximum is
    the unrestricted one clamped to the parameter interval.
    """
    lo, hi = g.param_range
    tstar, peak = _full_line_peak(g, h)
    if tstar is None:
        # supremum at an infinite parameter; decide which end
        if isinstance(g, VerticalGeodesic) and isinstance(h, AtInfinityHoroball):
            return INF if hi == INF else hi - math.log(h.height)
        if isinstance(g, VerticalGeodesic):
            # foot equals the base: depth = log(2r) - t, decreasing
            return INF if lo == -INF else _depth_at(g, lo, h)
        # arc endpoint equals the base of h; tangency end is b when B < 0
        v = vsub(g.midpoint, h.base)
        if vdot(v, g.unit) < 0:
            return INF if hi == INF else _depth_at(g, hi, h)
        return INF if lo == -INF else _depth_at(g, lo, h)
    if lo <= tstar <= hi:
        return peak
    t = lo if tstar < lo else hi
    if math.isinf(t):
        return -INF
    return _depth_at(g, t, h)


def penetration_interval(g: Geodesic, h: Horoball) -> Optional[tuple]:
    """Closed parameter interval on which the full geodesic lies in h,
    or None when it stays outside; not intersected with g.param_range."""
    if isinstance(g, VerticalGeodesic):
        if isinstance(h, AtInfinityHoroball):
            return (math.log(float(h.height)), INF)
        u2 = vnorm2(vsub(_flv(g.foot), _flv(h.base)))
        if u2 == 0:
            return (-INF, math.log(2 * float(h.radius)))
        r = float(h.radius)
        if u2 > r * r:
            return None
        w = math.sqrt(r * r - u2)
        return (math.log(r - w) if r > w else -INF, math.log(r + w))
    rho = g.rho
    if isinstance(h, AtInfinityHoroball):
        hh = float(h.height)
        if rho < hh:
            return None
        w = math.acosh(rho / hh)
        return (-w, w)
    v = vsub(_flv(g.midpoint), _flv(h.base))
    A = vnorm2(v) + rho * rho
    B = 2 * rho * vdot(v, g.unit)
    disc = A * A - B * B
    c = 2 * float(h.radius) * rho
    if disc <= 0:
        # an arc endpoint is the base of h; the horoball occupies a half
        # line where A cosh t + B sinh t = A e^{-+t} drops below c
        if B < 0:
            return (math.log(A / c), INF)
        return (-INF, math.log(c / A))
    ratio = c / math.sqrt(disc)
    if ratio < 1:
        return None
    w = math.acosh(ratio)
    tc = math.atanh(-B / A)
    return (tc - w, tc + w)


# ---------------------------------------------------------------------------
# geodesics through a point, parameters, inversion


def geodesic_through(p: Point, xi: Optional[Vector]) -> Geodesic:
    """Full geodesic through the interior point p with one endpoint xi.

    xi = None stands for the point at infinity (vertical line).  For a
    finite endpoint the other endpoint is computed by inverting at xi;
    the returned arc is oriented from xi toward the second endpoint.
    """
    if xi is None:
        return VerticalGeodesic(p.base)
    xi = as_vector(xi)
    d = vsub(p.base, xi)
    u2 = vnorm2(d)
    if u2 == 0:
        return VerticalGeodesic(xi)
    lam = (u2 + p.height * p.height) / u2
    other = vadd(xi, vscale(d, lam))
    return ArcGeodesic(xi, other)


def param_of(g: Geodesic, p: Point, tol: float = 1e-6) -> float:
    """Arclength parameter of an interior point lying on g."""
    if isinstance(g, VerticalGeodesic):
        if vnorm(vsub(p.base, g.foot)) > tol * max(1.0, p.height):
            raise ValueError("point not on the vertical geodesic")
        return math.log(p.height)
    rho, m, u = g.rho, g.midpoint, g.unit
    x = vdot(vsub(p.base, m), u) / rho
    if not -1 < x < 1:
        raise ValueError("point not on the arc")
    t = math.atanh(x)
    if hyperbolic_dist(p, g.point_at(t)) > tol:
        raise ValueError("point not on the arc")
    return t


def reverse(g: Geodesic) -> Geodesic:
    """Same geodesic with the opposite orientation."""
    lo, hi = g.param_range
    rng = (-hi, -lo)
    if isinstance(g, VerticalGeodesic):
        raise ValueError("a vertical geodesic has a preferred orientation")
    return ArcGeodesic(g.b, g.a, rng)


# Inversion at a finite boundary point p: z -> (z - p) / |z - p|^2.  It is
# an isometry of the model exchanging p and infinity, and maps horoballs
# to horoballs.


def invert_boundary(x: Vector, p: Vector) -> Vector:
    d = vsub(as_vector(x), as_vector(p))
    n2 = vnorm2(d)
    if n2 == 0:
        raise ValueError("cannot invert the center itself")
    return vscale(d, 1 / n2)


def invert_point(pt: Point, p: Vector) -> Point:
    d = vsub(pt.base, as_vector(p))
    n2 = vnorm2(d) + pt.height * pt.height
    return Point(vscale(d, 1 / n2), pt.height / n2)


def invert_horoball(h: Horoball, p: Vector) -> Horoball:
    p = as_vector(p)
    if isinstance(h, AtInfinityHoroball):
        dim = len(p)
        return TangentHoroball((0,) * dim, 1 / (2 * h.height))
    d = vsub(h.base, p)
    n2 = vnorm2(d)
    if n2 == 0:
        return AtInfinityHoroball(1 / (2 * h.radius))
    return TangentHoroball(vscale(d, 1 / n2), h.radius / n2)

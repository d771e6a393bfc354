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

from .numeric import widen

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
    vector from a to b; the apex sits at t = 0.  point_at evaluates the
    base from the nearer end.
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
        d = vsub(_flv(self.b), _flv(self.a))
        # the squares underflow to 0 when the ends are within about 1e-162
        return (vnorm(d) or math.hypot(*d)) / 2

    @property
    def unit(self) -> tuple:
        d = vsub(_flv(self.b), _flv(self.a))
        return vscale(d, 1.0 / vnorm(d))

    def point_at(self, t: float) -> Point:
        # the base m + rho tanh(t) u is a + (b - a) e^2t / (1 + e^2t), taken
        # from the nearer end so that it does not cancel near that end
        a, b = _flv(self.a), _flv(self.b)
        e = math.exp(-2 * abs(t))
        step = vscale(vsub(b, a), e / (1 + e))
        base = vadd(a, step) if t <= 0 else vsub(b, step)
        return Point(base, self.rho / math.cosh(t))

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
    """Hyperbolic distance arccosh(1 + (|db|^2 + dh^2) / (2 h_p h_q)),
    evaluated as 2 arsinh(sqrt(|db|^2 + dh^2) / (2 sqrt(h_p h_q))), which
    does not cancel between nearby points."""
    db2 = vnorm2(vsub(_flv(p.base), _flv(q.base)))
    hp, hq = float(p.height), float(q.height)
    dh = hp - hq
    return 2 * math.asinh(math.sqrt(db2 + dh * dh) / (2 * math.sqrt(hp * hq)))


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


def _depth_form(g: Geodesic, h: Horoball) -> tuple:
    """Floats (P, Q, c) with the depth of g(t) in h equal to
    log(c / (P e^t + Q e^-t)) at every parameter t.

    For an arc P and Q are the squared distances from the base of h to
    the ends b and a, so P = 0 or Q = 0 says exactly that an end is the
    base, and P*Q never cancels.
    """
    if isinstance(g, VerticalGeodesic):
        if isinstance(h, AtInfinityHoroball):
            return 0.0, float(h.height), 1.0
        return 1.0, vnorm2(vsub(_flv(g.foot), _flv(h.base))), 2 * float(h.radius)
    if isinstance(h, AtInfinityHoroball):
        height = float(h.height)
        return height, height, 2 * g.rho
    x = _flv(h.base)
    return (vnorm2(vsub(_flv(g.b), x)), vnorm2(vsub(_flv(g.a), x)),
            4 * float(h.radius) * g.rho)


#: log 2, for the depth form in logarithms
_LN2 = math.log(2)


def _log_pq(g: Geodesic, h: Horoball) -> tuple:
    """(log p, log q) of penetration_depth, from the distances rather than
    their squares, so that nothing underflows; log 0 = -inf exactly
    where an end is the base."""
    def log_sq(v):
        n = math.hypot(*v)
        return 2 * math.log(n) if n else -INF

    if isinstance(g, VerticalGeodesic):
        if isinstance(h, AtInfinityHoroball):
            return -INF, math.log(2 * float(h.height))
        lP, lQ = 0.0, log_sq(vsub(_flv(g.foot), _flv(h.base)))
        lc = math.log(2 * float(h.radius))
    elif isinstance(h, AtInfinityHoroball):
        lP = lQ = math.log(float(h.height))
        lc = math.log(2 * g.rho)
    else:
        x = _flv(h.base)
        lP, lQ = log_sq(vsub(_flv(g.b), x)), log_sq(vsub(_flv(g.a), x))
        lc = 2 * _LN2 + math.log(float(h.radius)) + math.log(g.rho)
    return _LN2 + lP - lc, _LN2 + lQ - lc


def _pq(g: Geodesic, h: Horoball) -> tuple:
    """(p, q, None) with p = 2P/c and q = 2Q/c of _depth_form, or (None,
    None, (log p, log q)) where c underflows to 0, where p or q
    overflows, or where p or q underflows while its end is not the base
    (where an end is the base and the other
    ratio is nonzero, the monotone reading of p = 0 or q = 0 holds)."""
    P, Q, c = _depth_form(g, h)
    if c != 0:
        p, q = 2 * P / c, 2 * Q / c
        if p != 0 and q != 0 and p + q < INF:
            return p, q, None
    logs = _log_pq(g, h)
    if (c != 0 and p + q < INF and ((p == 0) == (logs[0] == -INF))
            and ((q == 0) == (logs[1] == -INF))):
        return p, q, None
    return None, None, logs


def penetration_depth(g: Geodesic, h: Horoball) -> float:
    """Signed hyperbolic depth of the deepest point of g inside h,
    restricted to g.param_range; <= 0 means g avoids the open horoball.

    With p = 2P/c and q = 2Q/c the depth is -log((p e^t + q e^-t) / 2),
    concave with its peak -log(pq) / 2 at t* = log(q / p) / 2.  The
    restricted maximum sits at t* clamped to the parameter interval, d
    away from t*, and is the peak minus log cosh(d) = d + log((1 + e^-2d)
    / 2), finite at every finite d.  For an arc p and q are ratios, so
    dilating by a power of two leaves every bit of the result unchanged.
    Where c, p or q underflows the same runs on log p and log q (_pq).
    """
    p, q, logs = _pq(g, h)
    lo, hi = g.param_range
    rising, falling = (p == 0, q == 0) if logs is None else (logs[0] == -INF, logs[1] == -INF)
    if rising or falling:
        # monotone: rising toward +inf when p = 0, toward -inf when q = 0
        t = hi if rising else lo
        if math.isinf(t):
            return INF if (t > 0) == rising else -INF
        end = math.log(2 / (p or q)) if logs is None else _LN2 - max(logs)
        return end + (t if rising else -t)
    if logs is not None:
        tstar, peak = (logs[1] - logs[0]) / 2, -(logs[0] + logs[1]) / 2
    elif 0 < p * q < INF and 0 < q / p < INF:
        tstar, peak = math.log(q / p) / 2, -math.log(p * q) / 2
    else:
        # p q or q / p underflows or overflows: the same in logarithms
        tstar, peak = (math.log(q) - math.log(p)) / 2, -(math.log(p) + math.log(q)) / 2
    d = abs(min(max(tstar, lo), hi) - tstar)
    return peak - d - math.log1p(math.expm1(-2 * d) / 2)


def penetration_interval(g: Geodesic, h: Horoball) -> Optional[tuple]:
    """Closed parameter interval on which the full geodesic lies in h,
    or None when it stays outside; not intersected with g.param_range.

    With x = e^t the interval is P x^2 - c x + Q <= 0, whose roots
    2Q / w and w / 2P, w = c + sqrt(c^2 - 4PQ), carry no cancellation;
    they are taken divided through by c, as q / w' and w' / p with the p
    and q of `penetration_depth` (or their logarithms where they
    underflow), so the interval is None exactly when the depth of the
    full geodesic is negative.
    """
    p, q, logs = _pq(g, h)
    if logs is not None:
        lp, lq = logs
        if lp + lq > 0:
            return None
        lw = math.log(1 + math.sqrt(-math.expm1(lp + lq)))
        return (lq - lw, lw - lp)
    disc = 1 - p * q
    if disc < 0:
        return None
    w = 1 + math.sqrt(disc)
    return (math.log(q / w) if q else -INF, math.log(w / p) if p else INF)


# ---------------------------------------------------------------------------
# the same closed forms as float passes over a family's columns, for the
# filters in front of the scalar forms: each returns its values in family
# order with a bound on their distance from the scalar values, computed
# as widen(magnitude); a NaN or infinite bound means "decide exactly"


def _by_member(cols, tangent_values, infinity_values):
    import numpy as np
    out = np.empty(len(cols.tangent) + len(cols.infinity))
    out[cols.tangent] = tangent_values
    out[cols.infinity] = infinity_values
    return out


def sq_norms(rows):
    """Squared Euclidean norms of the rows of a float array."""
    import numpy as np
    return np.einsum("ij,ij->i", rows, rows)


def point_to_horoball_dists(p: Point, cols) -> tuple:
    """point_to_horoball_dist from p to every member of the family whose
    columns (packings.Columns) are cols, with its error bound."""
    import numpy as np
    hp = float(p.height)
    with np.errstate(all="ignore"):
        u2 = sq_norms(cols.base - _flv(p.base))
        dist = _by_member(cols, -np.log(2 * cols.radius * hp / (u2 + hp * hp)),
                          np.log(cols.height / hp))
    return dist, widen(1 + abs(dist))


def penetration_depths(g: Geodesic, cols) -> tuple:
    """penetration_depth of g into every member of the family whose
    columns (packings.Columns) are cols, with its error bound."""
    import numpy as np
    x = cols.base
    if isinstance(g, VerticalGeodesic):
        P = _by_member(cols, 1.0, 0.0)
        Q = _by_member(cols, sq_norms(x - _flv(g.foot)), cols.height)
        c = _by_member(cols, 2 * cols.radius, 1.0)
    else:
        P = _by_member(cols, sq_norms(x - _flv(g.b)), cols.height)
        Q = _by_member(cols, sq_norms(x - _flv(g.a)), cols.height)
        c = _by_member(cols, 4 * cols.radius * g.rho, 2 * g.rho)
    lo, hi = g.param_range
    with np.errstate(all="ignore"):
        p, q = 2 * P / c, 2 * Q / c
        # in logarithms where p q or q / p underflows or overflows, as
        # penetration_depth
        direct = (0 < p * q) & (p * q < INF) & (0 < q / p) & (q / p < INF)
        tstar = np.where(direct, np.log(q / p) / 2, (np.log(q) - np.log(p)) / 2)
        peak = np.where(direct, -np.log(p * q) / 2, -(np.log(p) + np.log(q)) / 2)
        t = np.clip(tstar, lo, hi)
        d = abs(t - tstar)
        depth = peak - d - np.log1p(np.expm1(-2 * d) / 2)
        # monotone where an end is the base; the bound is then infinite
        depth = np.where(p == 0, np.log(2 / q) + hi, depth)
        depth = np.where((q == 0) & (p != 0), np.log(2 / p) - lo, depth)
        return depth, widen(1 + abs(np.log(p)) + abs(np.log(q)) + abs(t))


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


#: largest sinh of the hyperbolic distance from a point to a geodesic at
#: which param_of still takes the point to lie on the geodesic
_ON_GEODESIC = 1e-6


def param_of(g: Geodesic, p: Point) -> float:
    """Arclength parameter of an interior point lying on g.

    On an arc |p - a|^2 / |p - b|^2 = e^(2t), heights included; the
    inversion at the end nearer p (say a) sends g to the vertical line
    over (b - a) / |b - a|^2, and the sinh of the distance from p to it
    is the base gap over the height, without cancellation near either
    end."""
    base, h = _flv(p.base), float(p.height)
    if isinstance(g, VerticalGeodesic):
        if vnorm(vsub(base, _flv(g.foot))) > _ON_GEODESIC * h:
            raise ValueError("point not on the vertical geodesic")
        return math.log(h)
    a, b = _flv(g.a), _flv(g.b)
    da, db = vsub(base, a), vsub(base, b)
    na, nb = vnorm2(da) + h * h, vnorm2(db) + h * h
    t = (math.log(na) - math.log(nb)) / 2
    # invert at the nearer end: at the far one the gap is a difference of
    # two vectors of length about 1 / |b - a| and cancels
    d, n, far = (da, na, vsub(b, a)) if na <= nb else (db, nb, vsub(a, b))
    gap = vsub(vscale(d, 1 / n), vscale(far, 1 / vnorm2(far)))
    if vnorm(gap) > _ON_GEODESIC * h / n:
        raise ValueError("point not on the arc")
    return t


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

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
import sys
from dataclasses import dataclass
from typing import Optional, Union

from .numeric import unit_exponent, widen

Vector = tuple
INF = float("inf")
#: log 2, for the forms in logarithms
_LN2 = math.log(2)
#: the least normal float: a square or ratio below it keeps fewer bits
_TINY = sys.float_info.min

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


def vnorm(a: Vector):
    """Euclidean norm: abs (exact) on one coordinate, math.hypot beyond."""
    return abs(a[0]) if len(a) == 1 else math.hypot(*a)


def vnorm2(a: Vector):
    """Squared Euclidean norm; exact on Fraction input."""
    return sum(x * x for x in a)


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
    def rho(self) -> float:
        # hypot: the squares leave the float range within 1e-162 and beyond 1e154
        return math.hypot(*vsub(_flv(self.b), _flv(self.a))) / 2

    def restricted(self, lo: float, hi: float) -> "ArcGeodesic":
        return ArcGeodesic(self.a, self.b, (lo, hi))


Geodesic = Union[VerticalGeodesic, ArcGeodesic]


# ---------------------------------------------------------------------------
# basic metric quantities


def _flv(v: Vector) -> tuple:
    # the log/acosh closed forms return floats regardless, so shed any
    # exact coordinates up front instead of dragging Fractions through
    return tuple(map(float, v))


def point_to_horoball_dist(p: Point, h: Horoball) -> float:
    """Signed hyperbolic distance to the horosphere; negative inside:
    log(H / h) from a point at height h to the horoball at infinity of
    height H, and -log(2 r h / (u^2 + h^2)) to a tangent horoball of
    radius r whose base is u away.  Where u^2 + h^2, 2 r h or the ratio
    leaves the normal range, a one-row point_to_horoball_dists."""
    hp = float(p.height)
    if isinstance(h, AtInfinityHoroball):
        if _TINY <= (over := float(h.height) / hp) < INF:
            return math.log(over)
    else:
        n, m = vnorm2(vsub(_flv(p.base), _flv(h.base))) + hp * hp, 2 * float(h.radius) * hp
        if n >= _TINY and m >= _TINY and _TINY <= (ratio := m / n) < INF:
            return -math.log(ratio)
    return float(point_to_horoball_dists(p, _one_row(h))[0][0])


# ---------------------------------------------------------------------------
# numpy passes over a family's columns (packings.Columns), in family order;
# the scalar penetration forms are one-row passes


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
    columns are cols, with a bound on their distance from the scalar
    values (widen of the magnitude of their terms), for the filter in
    front of it.  On the rows where a sum of squares, product or ratio
    leaves the normal range, the logarithms of the heights, the radius
    and the hypot of (u, h), which the scalar reads there too."""
    import numpy as np
    hp = float(p.height)
    with np.errstate(all="ignore"):
        d = cols.base - _flv(p.base)
        n, m = sq_norms(d) + hp * hp, 2 * cols.radius * hp
        ratio, over = m / n, cols.height / hp
        dist = _by_member(cols, -np.log(ratio), np.log(over))
        mag = 1 + abs(dist)
        t = np.flatnonzero(~((n >= _TINY) & (m >= _TINY) & (ratio >= _TINY) & (ratio < INF)))
        i = np.flatnonzero(~((over >= _TINY) & (over < INF)))
        lh = math.log(hp)
        for rows, terms in (
                (cols.tangent[t], (2 * np.log(np.hypot(np.hypot.reduce(abs(d[t]), axis=1), hp)),
                                   -_LN2 - np.log(cols.radius[t]), -lh)),
                (cols.infinity[i], (np.log(cols.height[i]), -lh))):
            dist[rows] = sum(terms)
            mag[rows] = 1 + sum(map(abs, terms))
    return dist, widen(mag)



def _ratios(g: Geodesic, cols) -> tuple:
    """(p, q, lp, lq, direct) of g against every member of the family
    whose columns are cols, with numpy's float warnings off: the depth of
    g(t) in a member is log(c / (P e^t + Q e^-t)), p = 2P/c, q = 2Q/c,
    and lp, lq are their logarithms.  (P, Q, c) is (1, |foot - x|^2, 2r)
    for a vertical line and (|b - x|^2, |a - x|^2, 4 r rho) for an arc
    from a to b of half-width rho against a tangent member at x of radius
    r, and (0, H, 1) and (H, H, 2 rho) against the member at infinity of
    height H, so P = 0 or Q = 0 says exactly that an end is the base, and
    P Q never cancels.  direct marks the rows where c, P, Q, p and q are
    normal, or P and p (Q and q) are 0 with the end at the base; on the
    rest lp and lq come from the distances rather than their squares, so
    that nothing underflows or overflows, and p and q are not to be read.
    """
    import numpy as np
    x, vertical = cols.base, isinstance(g, VerticalGeodesic)
    width = len(g.foot if vertical else g.a)
    if len(cols.tangent) and x.shape[1] != width:
        raise ValueError(f"dimension mismatch: {width} vs {x.shape[1]}")
    if vertical:
        P = _by_member(cols, 1.0, 0.0)
        Q = _by_member(cols, sq_norms(x - _flv(g.foot)), cols.height)
        c = _by_member(cols, 2 * cols.radius, 1.0)
    else:
        P, Q = (_by_member(cols, sq_norms(x - _flv(end)), cols.height) for end in (g.b, g.a))
        c = _by_member(cols, 4 * cols.radius * g.rho, 2 * g.rho)
    p, q = 2 * P / c, 2 * Q / c
    lp, lq = np.log(p), np.log(q)
    ranged, P_min, Q_min = (c >= _TINY) & (p + q < INF), np.minimum(P, p), np.minimum(Q, q)
    direct = ranged & (P_min >= _TINY) & (Q_min >= _TINY)
    rest = np.flatnonzero(~direct)
    if not rest.size:
        return p, q, lp, lq, direct
    # (log P, log Q, log c) on the rest, from the distances
    t, i = ~direct[cols.tangent], ~direct[cols.infinity]
    lh = np.log(cols.height[i])
    log_sq = [2 * np.log(np.hypot.reduce(abs(x[t] - _flv(end)), axis=1))
              for end in ((g.foot,) if vertical else (g.b, g.a))]
    if vertical:
        tangent, infinity = (0.0, *log_sq, np.log(2 * cols.radius[t])), (-INF, lh, 0.0)
    else:
        lc = 2 * _LN2 + np.log(cols.radius[t]) + math.log(g.rho)
        tangent, infinity = (*log_sq, lc), (lh, lh, math.log(2 * g.rho))
    logs = np.empty((3, len(c)))
    for k in range(3):
        logs[k, cols.tangent[t]], logs[k, cols.infinity[i]] = tangent[k], infinity[k]
    log_p, log_q = _LN2 + logs[:2, rest] - logs[2, rest]
    # log 0 = -inf exactly at a base, where p = 0 or q = 0 reads directly
    back = (ranged[rest] & ((P_min[rest] >= _TINY) | (log_p == -INF))
            & ((Q_min[rest] >= _TINY) | (log_q == -INF)))
    lp[rest[~back]], lq[rest[~back]] = log_p[~back], log_q[~back]
    direct[rest[back]] = True
    return p, q, lp, lq, direct


def penetrations(g: Geodesic, cols) -> tuple:
    """(depths, lower ends, upper ends): penetration_depth and
    penetration_interval of g into every member of the family whose
    columns are cols, the ends NaN where the full geodesic stays outside.
    The depth -log((p e^t + q e^-t) / 2) is concave with its peak
    -log(pq) / 2 at t* = log(q / p) / 2 (in lp and lq where p q or q / p
    leaves the float range, and off the direct rows); the restricted
    maximum, at t* clamped to g.param_range, d away, is the peak minus
    log cosh(d) = d + log((1 + e^-2d) / 2), finite at every finite d.
    With x = e^t the interval solves P x^2 - c x + Q <= 0; its ends, the
    roots 2Q / w and w / 2P, w = c + sqrt(c^2 - 4PQ), divided through by
    c, carry no cancellation, and it is empty exactly where the full
    geodesic's depth is negative."""
    import numpy as np
    lo, hi = g.param_range
    with np.errstate(all="ignore"):
        p, q, lp, lq, direct = _ratios(g, cols)
        pq, ratio = p * q, q / p
        fast = direct & (np.minimum(pq, ratio) > 0) & (np.maximum(pq, ratio) < INF)
        tstar = np.where(fast, np.log(ratio), lq - lp) / 2
        peak = -np.where(fast, np.log(pq), lp + lq) / 2
        d = abs(np.clip(tstar, lo, hi) - tstar)
        depth = peak - d - np.log1p(np.expm1(-2 * d) / 2)
        # monotone where an end is the base: rising where p = 0, falling where q = 0
        depth = np.where(lp == -INF, _LN2 - lq + hi, depth)
        depth = np.where(lq == -INF, _LN2 - lp - lo, depth)
        w = 1 + np.sqrt(np.where(direct, 1 - pq, -np.expm1(lp + lq)))
        lw = np.log(w)
        return (depth, np.where(direct, np.log(q / w), lq - lw),
                np.where(direct, np.log(w / p), lw - lp))


def _one_row(h: Horoball):
    """The columns of the family {h}."""
    from .packings import HoroballFamily
    dim = 2 if isinstance(h, AtInfinityHoroball) else len(h.base) + 1
    return HoroballFamily(dim, [h]).columns


def penetration_depth(g: Geodesic, h: Horoball) -> float:
    """Signed hyperbolic depth of the deepest point of g inside h,
    restricted to g.param_range; <= 0 means g avoids the open horoball."""
    return float(penetrations(g, _one_row(h))[0][0])


def penetration_interval(g: Geodesic, h: Horoball) -> Optional[tuple]:
    """Closed parameter interval on which the full geodesic lies in h,
    or None when it stays outside; not intersected with g.param_range."""
    _, lo, hi = (float(e[0]) for e in penetrations(g, _one_row(h)))
    return None if math.isnan(lo) else (lo, hi)


# ---------------------------------------------------------------------------
# geodesics through a point, parameters


def geodesic_through(p: Point, xi: Optional[Vector]) -> Geodesic:
    """Full geodesic through the interior point p with one endpoint xi.

    xi = None stands for the point at infinity (vertical line).  For a
    finite endpoint the other endpoint is computed by inverting at xi;
    the returned arc is oriented from xi toward the second endpoint.
    The second endpoint is xi + d (|d|^2 + h^2) / |d|^2, d = base - xi, or
    xi + d + (d q) q, q = h / hypot(d), where a float square is off range.
    """
    if xi is None:
        return VerticalGeodesic(p.base)
    xi = as_vector(xi)
    d = vsub(p.base, xi)
    if not any(d):
        return VerticalGeodesic(xi)
    u2, h2 = vnorm2(d), p.height * p.height
    if isinstance(u2, float) and not (_TINY <= u2 and u2 + h2 < INF):
        q = float(p.height) / math.hypot(*_flv(d))
        return ArcGeodesic(xi, vadd(xi, vadd(d, vscale(vscale(d, q), q))))
    return ArcGeodesic(xi, vadd(xi, vscale(d, (u2 + h2) / u2)))


#: largest sinh of the hyperbolic distance from a point to a geodesic at
#: which param_of still takes the point to lie on the geodesic
_ON_GEODESIC = 1e-6


def param_of(g: Geodesic, p: Point) -> float:
    """Arclength parameter of an interior point lying on g.

    On an arc |p - a|^2 / |p - b|^2 = e^(2t), heights included; the
    inversion at the end nearer p (say a) sends g to the vertical line
    over (b - a) / |b - a|^2, and the sinh of the distance from p to it
    is the base gap over the height, without cancellation near either
    end.  Where one of the squares leaves the normal range, every
    difference and the height are first dilated by the power of two
    that brings the largest of them near 1 (unit_exponent), which is
    exact and leaves t as it is."""
    base, h = _flv(p.base), float(p.height)
    if isinstance(g, VerticalGeodesic):
        if math.hypot(*vsub(base, _flv(g.foot))) > _ON_GEODESIC * h:
            raise ValueError("point not on the vertical geodesic")
        return math.log(h)
    a, b = _flv(g.a), _flv(g.b)
    da, db, ab = vsub(base, a), vsub(base, b), vsub(b, a)
    na, nb, nab = vnorm2(da) + h * h, vnorm2(db) + h * h, vnorm2(ab)
    if not (_TINY <= min(na, nb, nab) and max(na, nb, nab) < INF):
        k = unit_exponent([*da, *db, *ab, h])
        da, db, ab, (h,) = ([math.ldexp(x, k) for x in v] for v in (da, db, ab, (h,)))
        na, nb, nab = vnorm2(da) + h * h, vnorm2(db) + h * h, vnorm2(ab)
    t = (math.log(na) - math.log(nb)) / 2
    # invert at the nearer end: at the far one the gap is a difference of
    # two vectors of length about 1 / |b - a| and cancels
    d, n, far = (da, na, ab) if na <= nb else (db, nb, vscale(ab, -1))
    gap = vsub(vscale(d, 1 / n), vscale(far, 1 / nab))
    if math.hypot(*gap) > _ON_GEODESIC * h / n:
        raise ValueError("point not on the arc")
    return t

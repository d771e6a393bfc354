"""Differential tests of the factored depth kernel of `halfspace` against
the three closed-form case splits it replaced and against the scalar
forms of the factored kernel that stood beside its column pass, both kept
here as oracles, and against an exact rational predicate where the old
arc form cancelled.

The kernel writes the depth of g(t) in h as log(c / (P e^t + Q e^-t));
for an arc against a tangent horoball of radius r at x, P = |b - x|^2,
Q = |a - x|^2 and c = 2r|b - a|, so the full arc avoids the open
horoball exactly when c^2 <= 4PQ, a test that stays rational on the
float inputs themselves.
"""

import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from horoshadow.halfspace import (
    INF,
    ArcGeodesic,
    AtInfinityHoroball,
    Point,
    TangentHoroball,
    VerticalGeodesic,
    _flv,
    geodesic_through,
    param_of,
    penetration_depth,
    penetration_interval,
    point_to_horoball_dist,
    vdot,
    vnorm2,
    vscale,
    vsub,
)
from horoshadow.numeric import DEFAULT_TOL
from horoshadow.packings import HoroballFamily, farey
from horoshadow.rays import _first_hit_after, verify_avoidance
from test_halfspace import point_at
from test_packing_oracles import similar

# ---------------------------------------------------------------------------
# oracles: the case splits as they stood before the factored kernel


def midpoint(g) -> tuple:
    """The Euclidean midpoint m of the ends of the arc g, in floats."""
    return tuple((float(x) + float(y)) / 2 for x, y in zip(g.a, g.b))


def unit(g) -> tuple:
    """The unit vector u from a to b of the arc g, in floats."""
    d = vsub(_flv(g.b), _flv(g.a))
    return vscale(d, 1.0 / math.hypot(*d))


def old_depth_at(g, t, h):
    return -point_to_horoball_dist(point_at(g, t), h)


def old_full_line_peak(g, h):
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
    v = vsub(_flv(midpoint(g)), _flv(h.base))
    A = vnorm2(v) + rho * rho
    B = 2 * rho * vdot(v, unit(g))
    disc = A * A - B * B
    if disc <= 0:
        # an endpoint of the arc is the base point of h (b if B < 0)
        return None, INF
    return math.atanh(-B / A), math.log(2 * float(h.radius) * rho / math.sqrt(disc))


def old_penetration_depth(g, h):
    lo, hi = g.param_range
    tstar, peak = old_full_line_peak(g, h)
    if tstar is None:
        # supremum at an infinite parameter; decide which end
        if isinstance(g, VerticalGeodesic) and isinstance(h, AtInfinityHoroball):
            return INF if hi == INF else hi - math.log(h.height)
        if isinstance(g, VerticalGeodesic):
            # foot equals the base: depth = log(2r) - t, decreasing
            return INF if lo == -INF else old_depth_at(g, lo, h)
        # arc endpoint equals the base of h; tangency end is b when B < 0
        v = vsub(midpoint(g), h.base)
        if vdot(v, unit(g)) < 0:
            return INF if hi == INF else old_depth_at(g, hi, h)
        return INF if lo == -INF else old_depth_at(g, lo, h)
    if lo <= tstar <= hi:
        return peak
    t = lo if tstar < lo else hi
    if math.isinf(t):
        return -INF
    return old_depth_at(g, t, h)


def old_penetration_interval(g, h):
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
    v = vsub(_flv(midpoint(g)), _flv(h.base))
    A = vnorm2(v) + rho * rho
    B = 2 * rho * vdot(v, unit(g))
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


def end_at_base_interval(g, h):
    """old_penetration_interval, taking its end-at-base branch where an
    end of the arc g is the base of h, or where the float discriminant
    A^2 - B^2 lies within its rounding error of 0, so that its sign says
    nothing.  A and B carry the rounding of the float midpoint m, radius
    rho and unit they are formed from, a few ulps of S = (|m| + |base| +
    rho)^2 each, so the discriminant errs by less than 22 u A S (u =
    2^-53), which 2^-47 A S covers.  There the old form can return a
    finite span, or none, where the horoball holds a half line, or all
    of it but an end 1e-175 away (TestFirstHitAfter.test_end_at_a_base
    and test_end_next_to_a_base)."""
    if isinstance(g, ArcGeodesic) and isinstance(h, TangentHoroball):
        base, mid, rho = _flv(h.base), _flv(midpoint(g)), g.rho
        v = vsub(mid, base)
        A, B = vnorm2(v) + rho * rho, 2 * rho * vdot(v, unit(g))
        S = (math.hypot(*mid) + math.hypot(*base) + rho) ** 2
        if base in (_flv(g.a), _flv(g.b)) or A * A - B * B <= 2.0 ** -47 * A * S:
            c = 2 * float(h.radius) * rho
            if base == _flv(g.b) or (base != _flv(g.a) and B < 0):
                return (math.log(A / c), INF)
            return (-INF, math.log(c / A))
    return old_penetration_interval(g, h)


def old_first_hit_after(g, t_x, forward, fam, skip, tol,
                        interval=old_penetration_interval):
    best = None
    for i, h in enumerate(fam.horoballs):
        if i == skip:
            continue
        span = interval(g, h)
        if span is None:
            continue
        t_in, t_out = span
        if forward:
            if t_out <= t_x:
                continue
            entry = max(t_in, t_x) - t_x
            sub = g.restricted(max(t_in, t_x), t_out)
        else:
            if t_in >= t_x:
                continue
            entry = t_x - min(t_out, t_x)
            sub = g.restricted(t_in, min(t_out, t_x))
        if old_penetration_depth(sub, h) <= tol:
            continue
        if best is None or entry < best[1]:
            best = (i, entry)
    return None if best is None else best[0]


# ---------------------------------------------------------------------------
# oracles: the scalar depth and interval that stood beside the column pass
# until it became the one kernel, verbatim up to names


def _depth_form(g, h):
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


def _log_pq(g, h):
    """(log p, log q) of scalar_penetration_depth, from the distances rather than
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


def _pq(g, h):
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


def scalar_penetration_depth(g, h):
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


def scalar_penetration_interval(g, h):
    """Closed parameter interval on which the full geodesic lies in h,
    or None when it stays outside; not intersected with g.param_range.

    With x = e^t the interval is P x^2 - c x + Q <= 0, whose roots
    2Q / w and w / 2P, w = c + sqrt(c^2 - 4PQ), carry no cancellation;
    they are taken divided through by c, as q / w' and w' / p with the p
    and q of `scalar_penetration_depth` (or their logarithms where they
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


def scalar_reads_subnormal(g, h):
    """Whether scalar_penetration_depth reads a square or ratio below the
    least normal float (not 0) directly, keeping fewer bits than the
    column pass, which takes that row in logarithms."""
    P, Q, c = _depth_form(g, h)
    values = (P, Q, c) + ((2 * P / c, 2 * Q / c) if c else ())
    return any(0 < v < sys.float_info.min for v in values)


# ---------------------------------------------------------------------------
# draws


def exact_avoids(g, h):
    """c^2 <= 4PQ over the rationals, i.e. r^2 |b - a|^2 <= |b - x|^2 |a - x|^2,
    on the exact values of the float inputs."""
    a, b, x = ([Fraction(c) for c in v] for v in (g.a, g.b, h.base))
    r = Fraction(h.radius)
    return r * r * vnorm2(vsub(b, a)) <= vnorm2(vsub(b, x)) * vnorm2(vsub(a, x))


def far(p, q, gap=0.25):
    return vnorm2(vsub(p, q)) >= gap * gap


@st.composite
def ranges(draw, bound=4.0):
    ends = st.floats(-bound, bound, allow_nan=False)
    kind = draw(st.sampled_from(["full", "finite", "below", "above"]))
    if kind == "full":
        return (-INF, INF)
    if kind == "below":
        return (-INF, draw(ends))
    if kind == "above":
        return (draw(ends), INF)
    lo, hi = sorted((draw(ends), draw(ends)))
    return (lo, hi)


@st.composite
def configurations(draw, bound=4.0):
    """(geodesic, horoball) in H^2 or H^3 whose ends keep at least 0.25
    from the base of a tangent horoball, so the old arc form is accurate."""
    dim = draw(st.sampled_from([1, 2]))
    point = st.tuples(*[st.floats(-3, 3, allow_nan=False)] * dim)
    rng = draw(ranges(bound))
    if draw(st.booleans()):
        h = TangentHoroball(draw(point), draw(st.floats(0.05, 2)))
    else:
        h = AtInfinityHoroball(draw(st.floats(0.1, 3)))
    tangent = isinstance(h, TangentHoroball)
    if draw(st.booleans()):
        foot = draw(point)
        assume(not tangent or far(foot, h.base))
        return VerticalGeodesic(foot, rng), h
    a, b = draw(point), draw(point)
    assume(far(a, b) and (not tangent or far(a, h.base) and far(b, h.base)))
    return ArcGeodesic(a, b, rng), h


@st.composite
def near_tangent(draw):
    """An arc with one end 1e-12..1e-5 from the base of a tangent horoball
    whose radius is within 10% of tangency, but not within 1e-9 of it: a
    float verdict rounds P, Q and c by a few ulps, so closer to tangency
    no float kernel can match the exact one."""
    dim = draw(st.sampled_from([1, 2]))
    point = st.tuples(*[st.floats(-3, 3, allow_nan=False)] * dim)
    a, b = draw(point), draw(point)
    assume(far(a, b, 0.1))
    end = b if draw(st.booleans()) else a
    eps = 10 ** draw(st.floats(-12, -5))
    direction = draw(st.tuples(*[st.floats(-1, 1)] * dim))
    norm = math.sqrt(vnorm2(direction))
    assume(norm > 0.1)
    x = tuple(e + eps * d / norm for e, d in zip(end, direction))
    assume(x != end)
    r_tan = math.sqrt(vnorm2(vsub(b, x)) * vnorm2(vsub(a, x)) / vnorm2(vsub(b, a)))
    delta = 10 ** draw(st.floats(-9, -1)) * draw(st.sampled_from([-1, 1]))
    return ArcGeodesic(a, b), TangentHoroball(x, r_tan * (1 + delta))


def near_tangent_sample(rnd):
    """The same draw from a seeded generator, for a fixed-size census."""
    a, b = rnd.uniform(-3, 3), rnd.uniform(-3, 3)
    while abs(b - a) < 0.1:
        b = rnd.uniform(-3, 3)
    end = b if rnd.random() < 0.5 else a
    x = end + rnd.choice((-1, 1)) * 10 ** rnd.uniform(-12, -5)
    r_tan = abs(b - x) * abs(a - x) / abs(b - a)
    delta = rnd.choice((-1, 1)) * 10 ** rnd.uniform(-9, -1)
    return ArcGeodesic((a,), (b,)), TangentHoroball((x,), r_tan * (1 + delta))


def agree(x, y, tol=1e-9):
    return x == y or abs(x - y) <= tol


def near(x, y, rel):
    """x equals y, or both are finite and x is within rel max(1, |y|)."""
    return x == y or math.isfinite(y) and abs(x - y) <= rel * max(1, abs(y))


#: the two cancellation repros: entered though the old form reports a
#: pass, and avoided though the old form reports +inf
REPROS = [
    (ArcGeodesic((-1.700579687240082,), (-0.009129789411975316,)),
     TangentHoroball((-0.009129825816118098,), 3.850628717296348e-08), False),
    (ArcGeodesic((-2.0151181148127257,), (-0.5668012057371763,)),
     TangentHoroball((-0.5668012057387732,), 1.5080561894275414e-12), True),
]


# ---------------------------------------------------------------------------
# well-conditioned agreement


class TestAgreesWithOldForms:
    @settings(max_examples=400, deadline=None)
    @given(configurations())
    def test_depth(self, case):
        g, h = case
        assert agree(penetration_depth(g, h), old_penetration_depth(g, h))

    @settings(max_examples=400, deadline=None)
    @given(configurations())
    def test_interval(self, case):
        g, h = case
        # away from tangency, where the interval ends are well conditioned
        assume(abs(old_full_line_peak(g, h)[1]) >= 1e-3)
        new, old = penetration_interval(g, h), old_penetration_interval(g, h)
        assert (new is None) == (old is None)
        if new is not None:
            assert agree(new[0], old[0]) and agree(new[1], old[1])

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(configurations(), near_tangent()))
    def test_interval_is_none_exactly_when_the_full_line_stays_out(self, case):
        g, h = case
        full = g.restricted(-INF, INF)
        assert (penetration_interval(g, h) is None) == (penetration_depth(full, h) < 0)

    def test_tangency_is_one_point(self):
        for g, h, t in ((ArcGeodesic((-1.0,), (1.0,)), AtInfinityHoroball(1.0), 0.0),
                        (VerticalGeodesic((0.5,)), TangentHoroball((0.0,), 0.5), math.log(0.5)),
                        (ArcGeodesic((0.0,), (4.0,)), TangentHoroball((2.0,), 1.0), 0.0)):
            assert penetration_depth(g, h) == 0
            assert penetration_interval(g, h) == (t, t)

    def test_end_at_base(self):
        h = TangentHoroball((0.5,), 0.25)
        for g, half in ((ArcGeodesic((-1.0,), (0.5,)), (math.log(1.5 / 0.5), INF)),
                        (ArcGeodesic((0.5,), (2.0,)), (-INF, math.log(0.5 / 1.5))),
                        (VerticalGeodesic((0.5,)), (-INF, math.log(0.5)))):
            assert penetration_depth(g, h) == INF
            span = penetration_interval(g, h)
            assert agree(span[0], half[0], 1e-15) and agree(span[1], half[1], 1e-15)


def ford_like(norm_max):
    """Ford spheres over the Gaussian fractions in the unit square with
    |q|^2 <= norm_max (radius 1/2|q|^2, one per point), plus the horoball
    at infinity of height 1."""
    best = {}
    for q1 in range(-3, 4):
        for q2 in range(-3, 4):
            n = q1 * q1 + q2 * q2
            if not 0 < n <= norm_max:
                continue
            for z1 in range(n + 1):
                for z2 in range(n + 1):
                    # z / n = p / q needs p = z q / n to be a Gaussian integer
                    if (z1 * q1 - z2 * q2) % n or (z1 * q2 + z2 * q1) % n:
                        continue
                    z = (Fraction(z1, n), Fraction(z2, n))
                    best[z] = min(best.get(z, n), n)
    balls = [TangentHoroball(tuple(map(float, z)), 1 / (2 * n)) for z, n in sorted(best.items())]
    return HoroballFamily(3, balls + [AtInfinityHoroball(1.0)])


FAMILIES = {"farey12+inf": farey(12, (0, 1), include_infinity=True),
            "farey30+inf": farey(30, (0, 1), include_infinity=True),
            "ford5+inf": ford_like(5),
            "ford10+inf": ford_like(10)}


class TestFirstHitAfter:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(FAMILIES)), st.data())
    def test_same_index(self, name, data):
        fam = FAMILIES[name]
        n = fam.dim - 1
        unit = st.floats(0, 1, allow_nan=False)
        x_base = tuple(data.draw(unit) for _ in range(n))
        x = Point(x_base, data.draw(st.floats(0.02, 1.5)))
        how = data.draw(st.sampled_from(["member", "infinity", "boundary"]))
        skip = -1
        if how == "member":
            skip = data.draw(st.integers(0, len(fam.horoballs) - 2))
            xi = fam.horoballs[skip].base
        elif how == "infinity":
            skip, xi = len(fam.horoballs) - 1, None
        else:
            xi = tuple(data.draw(st.floats(-2, 3)) for _ in range(n))
        # a base nearly below x sends the far end out beyond float range
        assume(xi is None or far(x_base, xi, 1e-3))
        g = geodesic_through(x, xi)
        t_x = param_of(g, x)
        forward = data.draw(st.booleans())
        # a boundary end may be exactly the base of a member, where the
        # old form's float discriminant can miss the end at the base
        assert _first_hit_after(g, t_x, forward, fam, skip, DEFAULT_TOL) == \
            old_first_hit_after(g, t_x, forward, fam, skip, DEFAULT_TOL,
                                end_at_base_interval)

    def test_some_draws_hit(self):
        # the comparison above is not vacuous: rays from a low point hit
        fam = FAMILIES["farey12+inf"]
        g = VerticalGeodesic((0.3,))
        hit = _first_hit_after(g, math.log(0.9), False, fam, -1, DEFAULT_TOL)
        assert hit is not None and hit == old_first_hit_after(
            g, math.log(0.9), False, fam, -1, DEFAULT_TOL)

    def test_end_next_to_a_base(self):
        # the end a = 3.65e-175 of the arc is next to the base 0 of member
        # 0, which holds x; the old form's discriminant misses member 0
        fam = FAMILIES["farey12+inf"]
        x = Point((0.015625,), 0.99609375)
        g = geodesic_through(x, (3.65189811576253e-175,))
        t_x = param_of(g, x)
        assert old_first_hit_after(g, t_x, True, fam, -1, DEFAULT_TOL) == 47
        assert _first_hit_after(g, t_x, True, fam, -1, DEFAULT_TOL) == 0 == \
            old_first_hit_after(g, t_x, True, fam, -1, DEFAULT_TOL, end_at_base_interval)

    def test_end_at_a_base(self):
        # the end a = 0 of the arc is the base of member 0, which holds x
        fam = FAMILIES["farey12+inf"]
        h = fam.horoballs[0]
        x = Point((0.451171875,), 0.4375)
        g = geodesic_through(x, (0.0,))
        assert g.a == (0.0,) and h.base == (0,) and h.radius == 0.5
        t_x = param_of(g, x)
        span = penetration_interval(g, h)
        assert span[0] == -INF and agree(span[1], math.log(0.5 / g.rho), 1e-15)
        ref = end_at_base_interval(g, h)
        assert ref[0] == -INF and agree(span[1], ref[1], 1e-15)
        assert t_x < span[1]
        assert _first_hit_after(g, t_x, True, fam, -1, DEFAULT_TOL) == 0
        assert old_first_hit_after(g, t_x, True, fam, -1, DEFAULT_TOL,
                                   end_at_base_interval) == 0
        # the old form's discriminant stays positive here: a finite span,
        # ending before x, so it skips the member that holds x
        old = old_penetration_interval(g, h)
        assert -INF < old[0] and old[1] < t_x
        assert old_first_hit_after(g, t_x, True, fam, -1, DEFAULT_TOL) == 1


# ---------------------------------------------------------------------------
# exact verdicts near tangency


class TestExactVerdict:
    @settings(max_examples=400, deadline=None)
    @given(near_tangent())
    def test_depth_sign_is_exact(self, case):
        g, h = case
        avoids = exact_avoids(g, h)
        assert (penetration_depth(g, h) <= 0) == avoids
        assert (penetration_interval(g, h) is None) == avoids

    @pytest.mark.parametrize("g, h, avoids", REPROS, ids=["entered", "avoided"])
    def test_repros(self, g, h, avoids):
        assert exact_avoids(g, h) is avoids
        assert (penetration_depth(g, h) <= 0) is avoids
        assert (penetration_interval(g, h) is None) is avoids
        # the old arc form gets both wrong
        assert (old_penetration_depth(g, h) <= 0) is not avoids

    def test_census(self):
        rnd = random.Random(20)
        cases = [near_tangent_sample(rnd) for _ in range(2000)]
        new_wrong = sum((penetration_depth(g, h) <= 0) != exact_avoids(g, h) for g, h in cases)
        old_wrong = sum((old_penetration_depth(g, h) <= 0) != exact_avoids(g, h)
                        for g, h in cases)
        assert new_wrong == 0
        assert old_wrong > 200


# ---------------------------------------------------------------------------
# extreme parameters


class TestFarParameters:
    def test_vertical_into_infinity_at_800(self):
        g = VerticalGeodesic((0.0,), (-INF, 800.0))
        assert penetration_depth(g, AtInfinityHoroball(1.0)) == 800.0

    def test_old_form_overflows(self):
        g = ArcGeodesic((-1.0,), (1.0,), (800.0, 900.0))
        with pytest.raises(OverflowError):
            old_penetration_depth(g, TangentHoroball((0.3,), 0.2))
        assert penetration_depth(g, TangentHoroball((0.3,), 0.2)) == pytest.approx(
            -800 + math.log(2 * 0.2 * 2 / 0.7 ** 2), abs=1e-9)

    def test_range_at_an_ideal_end(self):
        # a range (inf, inf) or (-inf, -inf) gives the limit of the depth
        # at that end: +inf where the end is the base, -inf elsewhere
        base, tangent, top = (0.0,), TangentHoroball((0.0,), 0.5), AtInfinityHoroball(1.0)
        cases = [(VerticalGeodesic(base), tangent, False, True),
                 (VerticalGeodesic(base), top, True, False),
                 (ArcGeodesic(base, (1.0,)), tangent, False, True),
                 (ArcGeodesic((1.0,), base), tangent, True, False),
                 (ArcGeodesic((-1.0,), (1.0,)), tangent, False, False),
                 (ArcGeodesic(base, (1.0,)), top, False, False)]
        for g, h, up, down in cases:
            for end, enters in (((INF, INF), up), ((-INF, -INF), down)):
                depth = penetration_depth(g.restricted(*end), h)
                assert depth == (INF if enters else -INF)

    @settings(max_examples=400, deadline=None)
    @given(configurations(bound=1e4), st.booleans())
    def test_never_raises(self, case, end_at_base):
        g, h = case
        if end_at_base and isinstance(h, TangentHoroball):
            end = g.foot if isinstance(g, VerticalGeodesic) else g.a
            h = TangentHoroball(end, h.radius)
        depth = penetration_depth(g, h)
        assert isinstance(depth, float) and not math.isnan(depth)
        span = penetration_interval(g, h)
        assert span is None or not any(math.isnan(e) for e in span)

    def test_arc_whose_half_width_underflows(self):
        # |b - a|^2 underflows to 0, so rho read 0 and c = 4 r rho did too
        # (ZeroDivisionError); the arc ends at the base of the member at 0,
        # and the squared distance P of its other end underflows, so the
        # interval ends at log(c / P), not at +inf
        fam = farey(12)
        g = ArcGeodesic((0.0,), (6.76e-289,))
        assert g.rho == 3.38e-289
        assert penetration_depth(g, fam.horoballs[0]) == INF
        lo, hi = penetration_interval(g, fam.horoballs[0])
        with mpmath.workdps(40):
            c = 4 * mpmath.mpf(0.5) * mpmath.mpf(g.rho)
            want = float(mpmath.log(c / mpmath.mpf(6.76e-289) ** 2))
        assert lo == -INF and hi == pytest.approx(want, abs=1e-9)
        assert want == pytest.approx(663.536, abs=1e-3)
        rep = verify_avoidance(g, fam, 0.0)
        assert not rep.ok and rep.max_depths[0] == (0, INF)

    def test_end_beside_the_base_keeps_every_bit(self):
        # P = b^2 is subnormal: read directly it keeps about 11 bits
        # (367.73374), taken from the distance all of them
        b = 9.867e-161
        depth = penetration_depth(ArcGeodesic((1.0,), (b,)), TangentHoroball((0,), 0.5))
        assert depth == pytest.approx(-math.log(b) - math.log(2), rel=1e-12)
        assert depth == pytest.approx(367.7338569, abs=1e-7)

    def test_arc_beyond_the_square_range(self):
        # |b - a| > 1.34e154, where the square of the gap overflowed: rho
        # read +inf, so the arc reported depth +inf and the interval
        # (-inf, inf) against a member it avoids, and raised
        # ZeroDivisionError restricted to (-3, -2) against the member at
        # infinity; the exact dilation by 2^-600 is the reference
        g = ArcGeodesic((-1e200,), (0.5,))
        h = TangentHoroball((0.0,), 0.25)
        g2, h2 = (similar(x, 2.0 ** -600) for x in (g, h))
        rep = verify_avoidance(g, HoroballFamily(2, [h]), 0.0)
        assert rep.ok and rep.max_depths[0][1] == pytest.approx(
            penetration_depth(g2, h2), rel=1e-12)
        assert rep.max_depths[0][1] == pytest.approx(-math.log(2), abs=1e-12)
        assert penetration_interval(g, h) is None and penetration_interval(g2, h2) is None
        part, top = g.restricted(-3.0, -2.0), AtInfinityHoroball(0.25)
        part2, top2 = (similar(x, 2.0 ** -600) for x in (part, top))
        depth, span = penetration_depth(part, top), penetration_interval(part, top)
        assert depth == pytest.approx(penetration_depth(part2, top2), rel=1e-12)
        assert depth == pytest.approx(459.885163, abs=1e-6)
        assert span == pytest.approx(penetration_interval(part2, top2), rel=1e-12)

    @staticmethod
    def arc_reference(g, h):
        """(depth, interval) of the full arc g in the tangent h, in mpmath:
        log(c / 2 sqrt(PQ)) and the logs of the roots 2Q / w and w / 2P,
        w = c + sqrt(c^2 - 4PQ), of P x^2 - c x + Q."""
        with mpmath.workdps(60):
            a, b, x, r = (mpmath.mpf(v) for v in (g.a[0], g.b[0], h.base[0], h.radius))
            P, Q, c = (b - x) ** 2, (a - x) ** 2, 2 * r * abs(b - a)
            depth = float(mpmath.log(c / (2 * mpmath.sqrt(P * Q))))
            disc = c * c - 4 * P * Q
            if disc < 0:
                return depth, None
            root = mpmath.sqrt(disc)
            return depth, (float(mpmath.log(2 * Q / (c + root))),
                           float(mpmath.log((c + root) / (2 * P))))

    def test_arc_where_c_underflows(self):
        # c = 4 r rho underflows to 0 although rho does not (ZeroDivisionError)
        g = ArcGeodesic((-4.573558994551331e-274,), (1.1455867883162989e-260,))
        h = TangentHoroball((1.7851248964719006e-91,), 2.028551018718069e-93)
        want, span = self.arc_reference(g, h)
        depth = penetration_depth(g, h)
        assert depth == pytest.approx(want, rel=1e-9) and depth == pytest.approx(-394.0578, abs=1e-4)
        assert span is None and penetration_interval(g, h) is None
        rep = verify_avoidance(g, HoroballFamily(2, [h]), 0.0)
        assert rep.ok and rep.max_depths == [(0, depth)] and rep.margin == -depth

    def test_arc_whose_end_distances_underflow(self):
        # P and Q both underflow to 0, which read as "an end is the base"
        # (+inf, and the interval (-inf, inf))
        g = ArcGeodesic((1e-200,), (2e-200,))
        h = TangentHoroball((0.0,), 0.5)
        want, span = self.arc_reference(g, h)
        depth = penetration_depth(g, h)
        assert depth == pytest.approx(want, rel=1e-9) and depth == pytest.approx(459.1307, abs=1e-4)
        lo, hi = penetration_interval(g, h)
        assert math.isfinite(lo) and math.isfinite(hi)
        assert (lo, hi) == pytest.approx(span, rel=1e-9)
        fam = HoroballFamily(2, [h])
        rep = verify_avoidance(g, fam, 0.0)
        assert not rep.ok and rep.max_depths == [(0, depth)] and rep.margin == -depth
        assert verify_avoidance(g.restricted(hi + 1, INF), fam, 0.0).max_depths[0][1] < 0

    def test_vertical_where_p_q_underflows(self):
        # p q underflows inside log (ValueError); the depth is log(r / x)
        fam = farey(12)
        k = 2 ** 60
        big = HoroballFamily(2, [TangentHoroball(tuple(k * c for c in h.base), k * h.radius)
                                 for h in fam.horoballs])
        g = VerticalGeodesic((3.15e-149,))
        with mpmath.workdps(40):
            want = float(mpmath.log(mpmath.mpf(2) ** 59 / mpmath.mpf(3.15e-149)))
        depth = penetration_depth(g, big.horoballs[0])
        assert depth == pytest.approx(want, rel=1e-12) and depth == pytest.approx(382.833, abs=1e-3)
        lo, hi = penetration_interval(g, big.horoballs[0])
        assert lo < 0 < hi
        rep = verify_avoidance(g, big, 0.0)
        assert not rep.ok and rep.max_depths[0] == (0, depth)


# ---------------------------------------------------------------------------
# isometries


dyadic = st.integers(-3 * 2 ** 20, 3 * 2 ** 20).map(lambda n: n / 2 ** 20)


class TestIsometries:
    @settings(max_examples=300, deadline=None)
    @given(configurations(), st.integers(-60, 60))
    def test_dilation_is_bit_identical(self, case, k):
        g, h = case
        g2, h2 = (similar(x, 2.0 ** k) for x in (g, h))
        if isinstance(g, ArcGeodesic):
            # the arc parameter is dilation invariant
            assert penetration_depth(g2, h2) == penetration_depth(g, h)
            assert penetration_interval(g2, h2) == penetration_interval(g, h)
            return
        # a vertical line's parameter shifts by k log 2
        full, full2 = (VerticalGeodesic(v.foot) for v in (g, g2))
        assert penetration_depth(full2, h2) == penetration_depth(full, h)
        span, span2 = penetration_interval(g, h), penetration_interval(g2, h2)
        assert (span is None) == (span2 is None)
        if span is not None:
            for e, e2 in zip(span, span2):
                assert agree(e2, e + k * math.log(2), 1e-12 * (1 + abs(k)))

    @settings(max_examples=150, deadline=None)
    @given(configurations(), st.integers(-1000, 1000))
    def test_dilation_out_of_the_square_range(self, case, k):
        # by 2^k with |k| up to 1000 the squares, products and ratios of
        # the direct form leave the float range (c underflows, p or q
        # overflows or underflows) and the rows run in logarithms
        g, h = case
        g2, h2 = (similar(x, 2.0 ** k) for x in (g, h))
        scaled = (g2.foot if isinstance(g2, VerticalGeodesic) else g2.a + g2.b) + (
            h2.base + (h2.radius,) if isinstance(h2, TangentHoroball) else (h2.height,))
        assume(all(v == 0 or sys.float_info.min <= abs(v) < INF for v in scaled))
        shift = k * math.log(2) if isinstance(g, VerticalGeodesic) else 0.0
        if isinstance(g2, VerticalGeodesic):
            # a vertical line's parameter shifts by k log 2
            g2 = VerticalGeodesic(g2.foot, tuple(e + shift for e in g.param_range))
        assert near(penetration_depth(g2, h2), penetration_depth(g, h), 1e-12)
        if abs(old_full_line_peak(g, h)[1]) < 1e-3:
            return  # the interval ends are ill-conditioned near tangency
        span, span2 = penetration_interval(g, h), penetration_interval(g2, h2)
        assert (span is None) == (span2 is None)
        if span is not None:
            for e, e2 in zip(span, span2):
                assert near(e2, e + shift, 1e-9)

    @pytest.mark.parametrize("k", [-500, -300, 300, 500])
    def test_far_scales(self, k):
        # every product the kernel forms stays in float range this far out
        arcs = [ArcGeodesic((-1.0, 0.5), (2.0, -0.25), rng)
                for rng in ((-INF, INF), (-0.5, 3.0), (1.5, INF))]
        for g in arcs:
            for h in (TangentHoroball((0.5, 0.1), 0.4), AtInfinityHoroball(0.7)):
                g2, h2 = (similar(x, 2.0 ** k) for x in (g, h))
                assert penetration_depth(g2, h2) == penetration_depth(g, h)
                assert penetration_interval(g2, h2) == penetration_interval(g, h)

    @settings(max_examples=300, deadline=None)
    @given(configurations(), st.data())
    def test_dyadic_translation_is_bit_identical(self, case, data):
        g, h = case
        # coordinates and shift on a 2^-20 grid, so every difference is exact
        snap = lambda v: tuple(round(c * 2 ** 20) / 2 ** 20 for c in v)  # noqa: E731
        if isinstance(h, TangentHoroball):
            h = TangentHoroball(snap(h.base), h.radius)
        if isinstance(g, VerticalGeodesic):
            g = VerticalGeodesic(snap(g.foot), g.param_range)
            assume(not isinstance(h, TangentHoroball) or g.foot != h.base)
        else:
            assume(snap(g.a) != snap(g.b))
            g = ArcGeodesic(snap(g.a), snap(g.b), g.param_range)
        n = len(g.foot) if isinstance(g, VerticalGeodesic) else len(g.a)
        shift = tuple(data.draw(dyadic) for _ in range(n))
        g2, h2 = (similar(x, shift=shift) for x in (g, h))
        assert penetration_depth(g2, h2) == penetration_depth(g, h)
        assert penetration_interval(g2, h2) == penetration_interval(g, h)

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horoshadow.halfspace import (
    _LN2,
    _TINY,
    INF,
    ArcGeodesic,
    AtInfinityHoroball,
    Horoball,
    Point,
    TangentHoroball,
    Vector,
    VerticalGeodesic,
    _flv,
    as_vector,
    geodesic_through,
    param_of,
    penetration_depth,
    penetration_interval,
    point_to_horoball_dist,
    point_to_horoball_dists,
    vadd,
    vnorm2,
    vscale,
    vsub,
)
from horoshadow.numeric import unit_exponent
from horoshadow.packings import HoroballFamily
from horoshadow.rays import _nearest
from test_packing_oracles import similar

coord = st.floats(min_value=-5, max_value=5, allow_nan=False)
height = st.floats(min_value=0.01, max_value=5, allow_nan=False)


# ---------------------------------------------------------------------------
# oracles: scalar forms that no program code reads, kept here verbatim with
# the tests that pin them.  invert_horoball is the oracle of rays._inverted,
# the inversion of a family.


def hyperbolic_dist(p: Point, q: Point) -> float:
    """Hyperbolic distance arccosh(1 + (|db|^2 + dh^2) / (2 h_p h_q)),
    evaluated as 2 arsinh(sqrt(|db|^2 + dh^2) / (2 sqrt(h_p h_q))), which
    does not cancel between nearby points.  Where the square or the
    product leaves the normal range, the hypot of (db, dh) over
    2 sqrt(h_p) sqrt(h_q), and arsinh x = log 2x where that overflows."""
    d = vsub(_flv(p.base), _flv(q.base))
    hp, hq = float(p.height), float(q.height)
    dh = hp - hq
    s2, pq = vnorm2(d) + dh * dh, hp * hq
    if _TINY <= pq < INF and (_TINY <= s2 < INF or s2 == 0):
        return 2 * math.asinh(math.sqrt(s2) / (2 * math.sqrt(pq)))
    norm = math.hypot(*d, dh)
    if (x := norm / (2 * math.sqrt(hp) * math.sqrt(hq))) < INF:
        return 2 * math.asinh(x)
    return 2 * math.log(norm) - math.log(hp) - math.log(hq)


def dist_alg_horoballs(h1: Horoball, h2: Horoball) -> float:
    """Signed distance between two horoballs along the geodesic joining
    their boundary points: positive iff disjoint, zero iff tangent,
    negative iff the open horoballs overlap."""
    if isinstance(h1, AtInfinityHoroball) and isinstance(h2, AtInfinityHoroball):
        raise ValueError("horoballs share the center at infinity")
    if isinstance(h1, AtInfinityHoroball):
        h1, h2 = h2, h1
    if isinstance(h2, AtInfinityHoroball):
        H, r = float(h2.height), float(h1.radius)
        if _TINY <= (q := H / (2 * r)) < INF:
            return math.log(q)
        return math.log(H) - _LN2 - math.log(r)
    d, r1, r2 = vsub(_flv(h1.base), _flv(h2.base)), float(h1.radius), float(h2.radius)
    if not any(d):
        raise ValueError("horoballs share their base point")
    # log(|d|^2 / 4 r1 r2), dilated near 1 (unit_exponent) where a square
    # or product leaves the normal range; from logs where the ratio still does
    u2, m = vnorm2(d), 4 * r1 * r2
    if not (_TINY <= min(u2, m) and max(u2, m) < INF):
        k = unit_exponent([*d, r1, r2])
        sd, s1, s2 = [math.ldexp(c, k) for c in d], math.ldexp(r1, k), math.ldexp(r2, k)
        u2, m = vnorm2(sd), 4 * s1 * s2
    if _TINY <= min(u2, m) and _TINY <= u2 / m < INF:
        return math.log(u2 / m)
    return 2 * math.log(math.hypot(*d)) - 2 * _LN2 - math.log(r1) - math.log(r2)


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


# Inversion at a finite boundary point p: z -> (z - p) / |z - p|^2.  It is
# an isometry of the model exchanging p and infinity, and maps horoballs
# to horoballs.


def _inverse(d: Vector, h, x) -> tuple:
    """(d / n2, x / n2) for n2 = |d|^2 + h^2, as (1 / n2) d and x / n2.
    Where a float n2 leaves the normal range, through the dilation of
    (d, h) that brings n2 into [1/4, len(d) + 1] (unit_exponent)."""
    n2 = vnorm2(d) + h * h
    if not isinstance(n2, float) or _TINY <= n2 < INF:
        return vscale(d, 1 / n2), x / n2
    k = unit_exponent([*_flv(d), float(h)])
    d, h = [math.ldexp(c, k) for c in _flv(d)], math.ldexp(float(h), k)
    n = vnorm2(d) + h * h
    return tuple(math.ldexp(c / n, k) for c in d), math.ldexp(float(x) / n, 2 * k)


def invert_boundary(x: Vector, p: Vector) -> Vector:
    d = vsub(as_vector(x), as_vector(p))
    if not any(d):
        raise ValueError("cannot invert the center itself")
    return _inverse(d, 0, 0)[0]


def invert_point(pt: Point, p: Vector) -> Point:
    return Point(*_inverse(vsub(pt.base, as_vector(p)), pt.height, pt.height))


def invert_horoball(h: Horoball, p: Vector) -> Horoball:
    """The image of h under the inversion at p; the member at infinity
    goes to the horoball at 0 of radius 1 / 2h, exact for an exact h."""
    p = as_vector(p)
    if isinstance(h, AtInfinityHoroball):
        return TangentHoroball((0,) * len(p), Fraction(1, 2) / h.height)
    d = vsub(h.base, p)
    if not any(d):
        return AtInfinityHoroball(1 / (2 * h.radius))
    return TangentHoroball(*_inverse(d, 0, h.radius))


def point_at(g, t: float) -> Point:
    """The point of g at parameter t: (foot, e^t) on a vertical
    geodesic, and on an arc its base m + rho tanh(t) u, which is
    a + (b - a) e^2t / (1 + e^2t), taken from the nearer end so that it
    does not cancel near that end, at height rho sech(t)."""
    if isinstance(g, VerticalGeodesic):
        return Point(g.foot, math.exp(t))
    a, b = _flv(g.a), _flv(g.b)
    e = math.exp(-2 * abs(t))
    step = vscale(vsub(b, a), e / (1 + e))
    base = vadd(a, step) if t <= 0 else vsub(b, step)
    return Point(base, g.rho / math.cosh(t))


def sample_depth(g, h, lo, hi, n=3000):
    """Independent oracle: densest-point depth by parameter sampling."""
    return max(-point_to_horoball_dist(point_at(g, lo + (hi - lo) * k / n), h)
               for k in range(n + 1))


class TestHyperbolicDist:
    def test_identity(self):
        assert hyperbolic_dist(Point(0, 1), Point(0, 1)) == 0

    def test_vertical_is_log_ratio(self):
        assert hyperbolic_dist(Point(0, 1), Point(0, math.e ** 2)) == pytest.approx(2)

    def test_unit_horizontal(self):
        # model formula: arccosh(1 + (1 + 0) / 2)
        assert hyperbolic_dist(Point(0, 1), Point(1, 1)) == pytest.approx(
            math.acosh(1.5), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hyperbolic_dist(Point((0, 0), 1), Point((0,), 1))

    @given(coord, height, coord, height, coord, height)
    @settings(max_examples=150)
    def test_triangle_inequality(self, x1, h1, x2, h2, x3, h3):
        p, q, r = Point(x1, h1), Point(x2, h2), Point(x3, h3)
        assert hyperbolic_dist(p, r) <= (
            hyperbolic_dist(p, q) + hyperbolic_dist(q, r) + 1e-9)

    @given(coord, height, coord, height, coord)
    @settings(max_examples=80)
    def test_translation_invariance(self, x1, h1, x2, h2, shift):
        d1 = hyperbolic_dist(Point(x1, h1), Point(x2, h2))
        d2 = hyperbolic_dist(Point(x1 + shift, h1), Point(x2 + shift, h2))
        assert d1 == pytest.approx(d2, abs=1e-9)

    def test_rotation_invariance(self):
        rnd = random.Random(5)
        for _ in range(50):
            a = (rnd.uniform(-2, 2), rnd.uniform(-2, 2))
            b = (rnd.uniform(-2, 2), rnd.uniform(-2, 2))
            th = rnd.uniform(0, 2 * math.pi)
            c, s = math.cos(th), math.sin(th)
            rot = lambda v: (c * v[0] - s * v[1], s * v[0] + c * v[1])
            d1 = hyperbolic_dist(Point(a, 1.3), Point(b, 0.7))
            d2 = hyperbolic_dist(Point(rot(a), 1.3), Point(rot(b), 0.7))
            assert d1 == pytest.approx(d2, abs=1e-9)


class TestDistAlg:
    def test_tangent_pair_is_zero(self):
        # Pythagoras: |x - x'|^2 = 4 r r' at tangency of the model balls
        assert dist_alg_horoballs(TangentHoroball(0, 0.5),
                                  TangentHoroball(1, 0.5)) == 0

    def test_disjoint_pair(self):
        got = dist_alg_horoballs(TangentHoroball(0, 0.25), TangentHoroball(1, 0.25))
        assert got == pytest.approx(math.log(4))

    def test_against_reference_horoball(self):
        assert dist_alg_horoballs(TangentHoroball(0, 0.5),
                                  AtInfinityHoroball(1)) == 0
        assert dist_alg_horoballs(AtInfinityHoroball(1),
                                  TangentHoroball(0, 0.25)) == pytest.approx(math.log(2))

    def test_shared_center_rejected(self):
        with pytest.raises(ValueError):
            dist_alg_horoballs(AtInfinityHoroball(1), AtInfinityHoroball(2))
        with pytest.raises(ValueError):
            dist_alg_horoballs(TangentHoroball(0, 1), TangentHoroball(0, 2))

    def test_sign_tracks_euclidean_tangency(self):
        # oracle: Euclidean distance of the model ball centers vs radii sum
        rnd = random.Random(11)
        for _ in range(300):
            b1, r1 = rnd.uniform(-3, 3), rnd.uniform(0.05, 1.5)
            b2, r2 = rnd.uniform(-3, 3), rnd.uniform(0.05, 1.5)
            if b1 == b2:
                continue
            gap = math.hypot(b1 - b2, r1 - r2) - (r1 + r2)
            alg = dist_alg_horoballs(TangentHoroball(b1, r1), TangentHoroball(b2, r2))
            assert (alg > 1e-12) == (gap > 1e-12) or abs(gap) <= 1e-12


class TestShrink:
    def test_zero_is_identity(self):
        h = TangentHoroball(0, 0.5)
        assert shrink(h, 0) == h

    def test_radius_scales(self):
        assert shrink(TangentHoroball(0, 0.5), math.log(2)).radius == pytest.approx(0.25)

    def test_at_infinity_height_grows(self):
        assert shrink(AtInfinityHoroball(1), 1).height == pytest.approx(math.e)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            shrink(TangentHoroball(0, 1), -0.1)

    def test_scale_monoid_exact_on_rationals(self):
        h = TangentHoroball((Fraction(1, 3),), Fraction(1, 2))
        s, t = Fraction(2, 3), Fraction(3, 5)
        once = scale_horoball(scale_horoball(h, s), t)
        both = scale_horoball(h, s * t)
        assert once == both  # exact, no tolerance

    def test_penetration_shifts_under_shrink(self):
        # all three closed forms shift by -t on full geodesics
        cases = [
            (VerticalGeodesic(1.0), TangentHoroball(0, 0.5)),
            (ArcGeodesic(-2.0, 0.7), TangentHoroball(0, 0.4)),
            (ArcGeodesic(-1.0, 1.0), AtInfinityHoroball(0.8)),
        ]
        for g, h in cases:
            base = penetration_depth(g, h)
            for t in (0.3, 1.1):
                assert penetration_depth(g, shrink(h, t)) == pytest.approx(
                    base - t, abs=1e-12)


class TestBusemann:
    def test_reference_level(self):
        assert busemann_height(Point(0, 1)) == 0

    def test_log_height(self):
        assert busemann_height(Point(5, math.e)) == pytest.approx(1)
        assert busemann_height(Point(0, 0.5)) == pytest.approx(-math.log(2))


class TestPointToHoroball:
    def test_on_horosphere(self):
        assert point_to_horoball_dist(Point(0, 1), TangentHoroball(0, 0.5)) == 0
        assert point_to_horoball_dist(Point(0, 2), AtInfinityHoroball(2)) == 0

    def test_outside_tangent(self):
        assert point_to_horoball_dist(
            Point(0, 1), TangentHoroball(0, 0.25)) == pytest.approx(math.log(2))

    def test_matches_metric_distance_to_horosphere(self):
        # oracle: minimize hyperbolic distance to sampled horosphere points
        h = TangentHoroball(0.3, 0.4)
        p = Point(1.2, 0.9)
        best = min(
            hyperbolic_dist(p, Point(0.3 + 0.4 * math.sin(a),
                                     0.4 - 0.4 * math.cos(a) + 1e-12))
            for a in [k * math.pi / 4000 for k in range(1, 4000)])
        assert point_to_horoball_dist(p, h) == pytest.approx(best, abs=1e-5)


class TestPenetration:
    def test_vertical_vs_tangent(self):
        assert penetration_depth(VerticalGeodesic(1), TangentHoroball(0, 0.5)) == \
            pytest.approx(math.log(0.5))
        assert penetration_depth(VerticalGeodesic(0), TangentHoroball(0.25, 0.5)) == \
            pytest.approx(math.log(2))

    def test_arc_tangent_to_reference(self):
        assert penetration_depth(ArcGeodesic(-1, 1), AtInfinityHoroball(1)) == \
            pytest.approx(0, abs=1e-15)

    def test_vertical_into_at_infinity(self):
        assert penetration_depth(VerticalGeodesic(0), AtInfinityHoroball(1)) == math.inf

    def test_arc_hitting_base_point(self):
        assert penetration_depth(ArcGeodesic(0.0, 1.0), TangentHoroball(0.0, 0.3)) == math.inf

    def test_end_just_beside_the_base(self):
        # P = b^2 and p = 2P/c are subnormal and q / p overflows; the depth
        # is still the peak -log(p q) / 2 = -log b - log 2, taken in
        # logarithms to full precision, not NaN
        b = 9.867184587122407e-161
        depth = penetration_depth(ArcGeodesic(1.0, b), TangentHoroball(0.0, 0.5))
        assert depth == pytest.approx(-math.log(b) - math.log(2), rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        # a planar member against a geodesic of H^3, as a geodesic read
        # from outside may be: numpy would broadcast the base silently
        with pytest.raises(ValueError, match="dimension mismatch"):
            penetration_depth(ArcGeodesic((0.1, 0.2), (0.7, 0.1)), TangentHoroball(0.5, 0.25))
        with pytest.raises(ValueError, match="dimension mismatch"):
            penetration_interval(VerticalGeodesic((0.1, 0.2)), TangentHoroball(0.5, 0.25))

    def test_degenerate_arc_rejected(self):
        with pytest.raises(ValueError):
            ArcGeodesic(1.0, 1.0)

    def test_full_line_matches_sampling(self):
        rnd = random.Random(2)
        for _ in range(120):
            g = ArcGeodesic(rnd.uniform(-3, -0.1), rnd.uniform(0.1, 3))
            h = TangentHoroball(rnd.uniform(-2, 2), rnd.uniform(0.05, 1.0))
            if abs(g.a[0] - h.base[0]) < 1e-6 or abs(g.b[0] - h.base[0]) < 1e-6:
                continue
            assert penetration_depth(g, h) == pytest.approx(
                sample_depth(g, h, -8, 8, 6000), abs=1e-4)

    def test_restricted_matches_sampling(self):
        rnd = random.Random(3)
        for _ in range(150):
            lo, hi = sorted((rnd.uniform(-2, 2), rnd.uniform(-2, 2)))
            if hi - lo < 0.05:
                continue
            g = ArcGeodesic(rnd.uniform(-3, -0.1), rnd.uniform(0.1, 3), (lo, hi))
            h = TangentHoroball(rnd.uniform(-1.5, 1.5), rnd.uniform(0.05, 0.8))
            assert penetration_depth(g, h) == pytest.approx(
                sample_depth(g, h, lo, hi), abs=1e-5)

    def test_interval_consistent_with_depth(self):
        rnd = random.Random(4)
        for _ in range(200):
            kind = rnd.random()
            if kind < 0.4:
                g = VerticalGeodesic(rnd.uniform(-2, 2))
            else:
                g = ArcGeodesic(rnd.uniform(-3, -0.1), rnd.uniform(0.1, 3))
            h = (TangentHoroball(rnd.uniform(-2, 2), rnd.uniform(0.05, 1.0))
                 if rnd.random() < 0.7 else AtInfinityHoroball(rnd.uniform(0.3, 2)))
            span = penetration_interval(g, h)
            depth = penetration_depth(g, h)
            if span is None:
                assert depth <= 1e-12
            else:
                lo, hi = span
                mid = (max(lo, -30) + min(hi, 30)) / 2
                assert -point_to_horoball_dist(point_at(g, mid), h) >= -1e-9
                if math.isfinite(lo):
                    assert abs(point_to_horoball_dist(point_at(g, lo), h)) < 1e-9


class TestGeodesicThrough:
    def test_vertical_cases(self):
        assert geodesic_through(Point(0, 1), None) == VerticalGeodesic((0,))
        assert geodesic_through(Point(3, 2), None) == VerticalGeodesic((3,))

    def test_unit_semicircle(self):
        g = geodesic_through(Point(0, 1), (1,))
        assert g.a == (1,)
        assert g.b[0] == pytest.approx(-1)

    def test_point_lies_on_result(self):
        rnd = random.Random(6)
        for _ in range(100):
            p = Point((rnd.uniform(-2, 2), rnd.uniform(-2, 2)), rnd.uniform(0.1, 2))
            xi = (rnd.uniform(-2, 2), rnd.uniform(-2, 2))
            g = geodesic_through(p, xi)
            t = param_of(g, p)
            q = point_at(g, t)
            assert hyperbolic_dist(p, q) < 1e-7


class TestInversion:
    def test_is_isometry(self):
        rnd = random.Random(7)
        p = (0.3,)
        for _ in range(100):
            a = Point(rnd.uniform(-2, 2), rnd.uniform(0.1, 2))
            b = Point(rnd.uniform(-2, 2), rnd.uniform(0.1, 2))
            if abs(a.base[0] - p[0]) < 0.05 or abs(b.base[0] - p[0]) < 0.05:
                continue
            assert hyperbolic_dist(a, b) == pytest.approx(
                hyperbolic_dist(invert_point(a, p), invert_point(b, p)), abs=1e-7)

    def test_horoball_images(self):
        p = (0.0,)
        assert invert_horoball(TangentHoroball(0, 0.5), p) == AtInfinityHoroball(1.0)
        img = invert_horoball(TangentHoroball(2.0, 0.5), p)
        assert img.base[0] == pytest.approx(0.5)
        assert img.radius == pytest.approx(0.125)
        back = invert_horoball(AtInfinityHoroball(1.0), p)
        assert back == TangentHoroball((0.0,), 0.5)

    def test_tangency_preserved(self):
        # disjointness (an isometric invariant) survives the inversion
        p = (-1.3,)
        h1, h2 = TangentHoroball(0, 0.5), TangentHoroball(1, 0.5)
        d0 = dist_alg_horoballs(h1, h2)
        d1 = dist_alg_horoballs(invert_horoball(h1, p), invert_horoball(h2, p))
        assert d0 == pytest.approx(d1, abs=1e-9)

    def test_boundary_involution(self):
        x, p = (1.7,), (0.4,)
        twice = invert_boundary(invert_boundary(x, p), (0.0,))
        assert twice[0] + p[0] == pytest.approx(x[0])


class TestOutsideTheSquareRange:
    """Point distances and param_of where a square leaves the float
    range: the values of the true geometry, or of an exact dilation by a
    power of two that brings the configuration into range."""

    FAR = 400 * math.log(10)  # 2 log 1e200

    def test_point_to_horoball_dist(self):
        # u^2 overflowed (ratio 0), and at 2^-600 the product 2 r h
        # underflowed: both raised math domain error
        p, h = Point((1e200,), 1.0), TangentHoroball((0.0,), 0.5)
        for k in (0, -600):
            assert point_to_horoball_dist(similar(p, 2.0 ** k), similar(h, 2.0 ** k)) == \
                pytest.approx(self.FAR, rel=1e-15)
        # H / h overflows
        assert point_to_horoball_dist(Point((0.0,), 1e-300), AtInfinityHoroball(1e300)) == \
            pytest.approx(600 * math.log(10), rel=1e-15)

    def test_nearest(self):
        p = Point((1e200,), 1.0)
        balls = [TangentHoroball((5e200,), 0.5), TangentHoroball((0.0,), 0.5)]
        for k in (0, -600):
            fam = HoroballFamily(2, [similar(h, 2.0 ** k) for h in balls])
            assert _nearest(fam, similar(p, 2.0 ** k), 1e-9) == 1

    def test_hyperbolic_dist(self):
        # the square of 1e200 overflowed to inf; at height 2^-600 both the
        # square and the product of the heights underflowed to 0
        assert hyperbolic_dist(Point((1e200,), 1.0), Point((0.0,), 1.0)) == \
            pytest.approx(self.FAR, rel=1e-15)
        tiny = 2.0 ** -600
        assert hyperbolic_dist(Point((tiny,), tiny), Point((0.0,), tiny)) == 2 * math.asinh(0.5)
        # the ratio itself overflows
        assert hyperbolic_dist(Point((1e10,), 1e-300), Point((0.0,), 1e-300)) == \
            pytest.approx(620 * math.log(10), rel=1e-15)

    @pytest.mark.parametrize("a,b,k", [((-1e200,), (0.5,), -600),
                                       ((0.0,), (1e-170,), 600),
                                       ((0.0,), (1e-160,), 600)])
    def test_param_of(self, a, b, k):
        # NaN, math domain error and 0.30021 before
        g = ArcGeodesic(a, b)
        x = point_at(g, 0.3)
        t = param_of(g, x)
        assert t == pytest.approx(param_of(similar(g, 2.0 ** k), similar(x, 2.0 ** k)), abs=1e-12)
        assert t == pytest.approx(0.3, abs=1e-12)

    R = 2.0 ** -600

    def test_horoball_gaps(self):
        # inf, and "share their base point" for the tangent pair, before
        assert dist_alg_horoballs(TangentHoroball((0.0,), 0.5), TangentHoroball((1e200,), 0.5)) \
            == pytest.approx(self.FAR, rel=1e-15)
        r = self.R
        assert dist_alg_horoballs(TangentHoroball((0.0,), r), TangentHoroball((2 * r,), r)) == 0
        # against the member at infinity H / 2r overflowed to inf, and
        # underflowed to 0 (math domain error)
        assert dist_alg_horoballs(TangentHoroball((0.0,), 1e-300), AtInfinityHoroball(1e300)) \
            == pytest.approx(1380.8579086158675, rel=1e-15)
        assert dist_alg_horoballs(AtInfinityHoroball(1e-300), TangentHoroball((0.0,), 1e300)) \
            == pytest.approx(-1382.2442029769873, rel=1e-15)

    def test_geodesic_through(self):
        # a NaN far end, and a vertical line, before
        assert geodesic_through(Point((1e200,), 1e200), (0.0,)) == ArcGeodesic((0.0,), (2e200,))
        r = self.R
        assert geodesic_through(Point((r,), r), (0.0,)) == ArcGeodesic((0.0,), (2.0 ** -599,))

    def test_inversions(self):
        # ZeroDivisionError, "cannot invert the center itself" and a silent
        # AtInfinityHoroball(2.07e180) before
        r = self.R
        assert invert_point(Point((r,), r), (0.0,)) == Point((2.0 ** 599,), 2.0 ** 599)
        assert invert_boundary((r,), (0.0,)) == (2.0 ** 600,)
        assert invert_horoball(TangentHoroball((r,), r), (0.0,)) == \
            TangentHoroball((2.0 ** 600,), 2.0 ** 600)

    def test_in_range_unchanged(self):
        # where every square is a normal float, the direct formulas
        rnd = random.Random(5)
        for _ in range(2000):
            p = Point((rnd.uniform(-3, 3), rnd.uniform(-3, 3)), rnd.uniform(0.01, 3))
            q = Point((rnd.uniform(-3, 3), rnd.uniform(-3, 3)), rnd.uniform(0.01, 3))
            h = TangentHoroball((rnd.uniform(-3, 3), rnd.uniform(-3, 3)), rnd.uniform(0.01, 1))
            u2 = sum((x - y) ** 2 for x, y in zip(p.base, h.base))
            assert point_to_horoball_dist(p, h) == \
                -math.log(2 * h.radius * p.height / (u2 + p.height * p.height))
            # the inversions, geodesic_through and dist_alg_horoballs at q
            d = tuple(x - y for x, y in zip(p.base, q.base))
            e = tuple(x - y for x, y in zip(h.base, q.base))
            n2, u2 = sum(x * x for x in d), sum(x * x for x in e)
            m2 = n2 + p.height * p.height
            assert invert_boundary(p.base, q.base) == tuple((1 / n2) * x for x in d)
            assert invert_point(p, q.base) == Point(tuple((1 / m2) * x for x in d), p.height / m2)
            assert invert_horoball(h, q.base) == \
                TangentHoroball(tuple((1 / u2) * x for x in e), h.radius / u2)
            assert geodesic_through(p, q.base) == \
                ArcGeodesic(q.base, tuple(y + (m2 / n2) * x for x, y in zip(d, q.base)))
            assert dist_alg_horoballs(h, TangentHoroball(q.base, 0.5)) == \
                math.log(u2 / (4 * h.radius * 0.5))
            assert dist_alg_horoballs(h, AtInfinityHoroball(p.height)) == \
                math.log(p.height / (2 * h.radius))
            db2 = sum((x - y) ** 2 for x, y in zip(p.base, q.base))
            dh = p.height - q.height
            assert hyperbolic_dist(p, q) == \
                2 * math.asinh(math.sqrt(db2 + dh * dh) / (2 * math.sqrt(p.height * q.height)))

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(coord, coord), height, st.tuples(coord, coord), height,
           st.floats(0.05, 2), st.integers(-1000, 1000))
    def test_dilation(self, x, hx, y, hy, r, k):
        p, q, h = Point(x, hx), Point(y, hy), TangentHoroball(y, r)
        top = AtInfinityHoroball(r)
        p2, q2, h2, top2 = (similar(x, 2.0 ** k) for x in (p, q, h, top))
        assert hyperbolic_dist(p2, q2) == pytest.approx(hyperbolic_dist(p, q), rel=1e-12, abs=1e-12)
        for ball, ball2 in ((h, h2), (top, top2)):
            want = point_to_horoball_dist(p, ball)
            got = point_to_horoball_dist(p2, ball2)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            # the column pass stays within its bound of the scalar
            approx, err = point_to_horoball_dists(p2, HoroballFamily(3, [ball2]).columns)
            assert abs(approx[0] - got) <= err[0]

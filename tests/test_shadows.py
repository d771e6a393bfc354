import math
import random
from fractions import Fraction

import pytest

from horoshadow.halfspace import (
    AtInfinityHoroball,
    Point,
    TangentHoroball,
    point_to_horoball_dist,
)
from horoshadow.packings import HoroballFamily, validate_disjoint
from horoshadow.sharpnd import maximal_annulus_ball
from test_halfspace import dist_alg_horoballs, hyperbolic_dist
from test_scan_oracles import Side, component_of


# the oracle of the boundary distance of shadows, which no program code
# reads, kept here verbatim with the tests that pin it

#: height of the reference horosphere, the one about the point at infinity
REFERENCE_HEIGHT = 1


def hamenstadt_dist_points(x: Point, y: Point) -> float:
    """Boundary-distance surrogate for interior points,
    exp(-(d(x,Href) + d(y,Href) - d(x,y)) / 2); as both points descend
    vertically to boundary points it converges to their Euclidean gap."""
    dx = point_to_horoball_dist(x, AtInfinityHoroball(REFERENCE_HEIGHT))
    dy = point_to_horoball_dist(y, AtInfinityHoroball(REFERENCE_HEIGHT))
    return math.exp(-0.5 * (dx + dy - hyperbolic_dist(x, y)))


class TestHamenstadtPoints:
    def test_same_point_on_reference(self):
        assert hamenstadt_dist_points(Point(0, 1), Point(0, 1)) == 1

    def test_both_on_reference(self):
        got = hamenstadt_dist_points(Point(0, 1), Point(1, 1))
        assert got == pytest.approx(math.exp(math.acosh(1.5) / 2))

    def test_descends_to_euclidean_distance(self):
        for h in (1e-2, 1e-4, 1e-6):
            got = hamenstadt_dist_points(Point(0, h), Point(1, h))
            assert got == pytest.approx(1, rel=5 * h)

    def test_ball_identity(self):
        # -2 log d(x, x') = d(ref, B) + d(ref, B') - d_alg(B, B') for balls
        # around x, x'; oracle by direct evaluation of each term
        rnd = random.Random(9)
        ref = AtInfinityHoroball(1)
        for _ in range(200):
            x = Point(rnd.uniform(-2, 2), rnd.uniform(0.05, 0.9))
            y = Point(rnd.uniform(-2, 2), rnd.uniform(0.05, 0.9))
            r1 = rnd.uniform(0.01, 0.3)
            r2 = rnd.uniform(0.01, 0.3)
            lhs = -2 * math.log(hamenstadt_dist_points(x, y))
            d_alg = hyperbolic_dist(x, y) - r1 - r2
            rhs = (point_to_horoball_dist(x, ref) - r1) + \
                  (point_to_horoball_dist(y, ref) - r2) - d_alg
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestQuadraticSeparation:
    """The certificate |x - x'|^2 >= 4 r r' as validate_disjoint applies
    it to two-member families."""

    @staticmethod
    def violations(h1, h2, **kw):
        return validate_disjoint(HoroballFamily(2, [h1, h2]), **kw).violations

    def test_tangent_unit_pair(self):
        pair = (TangentHoroball(0, 0.5), TangentHoroball(1, 0.5))
        assert self.violations(*pair, exact=True) == self.violations(*pair, tol=0) == []
        assert self.violations(*pair, tol=-1e-9) == [(0, 1)]

    def test_geometric_neighbors(self):
        pair = (TangentHoroball(0, 1), TangentHoroball(-8, 16))
        assert self.violations(*pair, exact=True) == self.violations(*pair, tol=0) == []
        assert self.violations(*pair, tol=-1e-9) == [(0, 1)]

    def test_disjoint_pair(self):
        pair = (TangentHoroball(0, 0.25), TangentHoroball(1, 0.25))
        assert self.violations(*pair, tol=-0.5) == []

    def test_equal_bases_rejected(self):
        assert self.violations(TangentHoroball(0, 1), TangentHoroball(0, 2)) == [(0, 1)]

    def test_exact_mode(self):
        left = TangentHoroball((Fraction(0),), Fraction(1, 2))
        touching = TangentHoroball((Fraction(1),), Fraction(1, 2))
        overlapping = TangentHoroball((Fraction(1),), Fraction(1, 2) + Fraction(1, 10 ** 30))
        assert self.violations(left, touching, exact=True) == []
        assert self.violations(left, overlapping, exact=True) == [(0, 1)]
        # the float test forgives an overlap inside tol
        assert self.violations(left, overlapping) == []

    def test_agrees_with_dist_alg_on_random_pairs(self):
        rnd = random.Random(10)
        for _ in range(10_000):
            b1, r1 = rnd.uniform(-3, 3), rnd.uniform(0.02, 1.2)
            b2, r2 = rnd.uniform(-3, 3), rnd.uniform(0.02, 1.2)
            if abs(b1 - b2) < 1e-9:
                continue
            pair = (TangentHoroball(b1, r1), TangentHoroball(b2, r2))
            alg = dist_alg_horoballs(*pair)
            if abs(alg) > 1e-9:
                assert (self.violations(*pair) == []) == (alg > 0)


def annulus_components_2d(h, s):
    """Both annulus components of the shadow of h on the line, left first:
    the planar maximal annulus balls along -1 and +1 as intervals, over
    the exact values of the inputs, which are the components of the old
    interval solver (component_of); rounded to floats."""
    h, s = TangentHoroball((Fraction(h.base[0]),), Fraction(h.radius)), Fraction(s)
    out = []
    for side, direction in ((Side.LEFT, (-1,)), (Side.RIGHT, (1,))):
        K = maximal_annulus_ball(h, s, direction)
        (c,) = K.center
        assert (c - K.radius, c + K.radius) == component_of(h, s, side).interval
        out.append((float(c - K.radius), float(c + K.radius)))
    return tuple(out)


class TestAnnulusComponents:
    def test_unit_ball(self):
        left, right = annulus_components_2d(TangentHoroball(0, 1), 0.5)
        assert left == (-1, -0.5) and right == (0.5, 1)

    def test_shifted(self):
        left, right = annulus_components_2d(TangentHoroball(2, 0.5), 0.25)
        assert left == (1.5, 1.875) and right == (2.125, 2.5)

    def test_degenerate_limit(self):
        s = 1 - 1e-12
        left, right = annulus_components_2d(TangentHoroball(0, 1), s)
        assert left[1] - left[0] == pytest.approx(0, abs=1e-11)
        assert right[0] == pytest.approx(1, abs=1e-11)

    def test_component_geometry(self):
        rnd = random.Random(12)
        for _ in range(200):
            b, r = rnd.uniform(-2, 2), rnd.uniform(0.05, 1)
            s = rnd.uniform(0.01, 0.99)
            left, right = annulus_components_2d(TangentHoroball(b, r), s)
            assert left[1] <= right[0]  # disjoint
            assert left[1] - left[0] == pytest.approx(r * (1 - s))
            assert right[1] - right[0] == pytest.approx(r * (1 - s))
            assert b - r <= left[0] and right[1] <= b + r

    def test_scale_range(self):
        with pytest.raises(ValueError):
            annulus_components_2d(TangentHoroball(0, 1), 1.0)

    def test_arcs_between_shadow_points_miss_reference(self):
        # any geodesic between two points of one shadow stays below the
        # reference horosphere
        from horoshadow.halfspace import ArcGeodesic, penetration_depth
        rnd = random.Random(14)
        for _ in range(300):
            r = rnd.uniform(0.02, 0.5)  # 2r <= 1
            b = rnd.uniform(-2, 2)
            eta = b + rnd.uniform(-1, 1) * r
            eta2 = b + rnd.uniform(-1, 1) * r
            if abs(eta - eta2) < 1e-9:
                continue
            depth = penetration_depth(ArcGeodesic(eta, eta2), AtInfinityHoroball(1))
            assert depth <= 1e-12

import math
import random
from fractions import Fraction

import pytest

from horoshadow.halfspace import (
    AtInfinityHoroball,
    Point,
    TangentHoroball,
    dist_alg_horoballs,
    hyperbolic_dist,
    point_to_horoball_dist,
)
from horoshadow.shadows import (
    CurvatureBand,
    hamenstadt_dist_points,
    quadratic_separation,
    shadow_of,
)
from horoshadow.sharp2d import Side, component_of


class TestShadowOf:
    def test_constant_curvature_equals_model_ball(self):
        sh = shadow_of(TangentHoroball(0, 0.5), CurvatureBand(1))
        assert sh.center == (0,)
        assert sh.inner_radius == sh.outer_radius == 0.5

    def test_farey_ball_q2(self):
        sh = shadow_of(TangentHoroball(0.5, 0.125), CurvatureBand(1))
        assert (sh.center[0], sh.inner_radius, sh.outer_radius) == (0.5, 0.125, 0.125)

    def test_pinched_outer_radius(self):
        sh = shadow_of(TangentHoroball(0, 0.5), CurvatureBand(2))
        assert sh.inner_radius == 0.5
        assert sh.outer_radius == pytest.approx(2 ** 0.5 * 0.5)

    def test_sandwich_equality_only_in_constant_curvature(self):
        for a in (1.0, 1.3, 2.0, 4.0):
            sh = shadow_of(TangentHoroball(1, 0.3), CurvatureBand(a))
            assert sh.inner_radius <= sh.outer_radius
            if a == 1.0:
                assert sh.inner_radius == sh.outer_radius
            else:
                assert sh.inner_radius < sh.outer_radius

    def test_rejects_overlapping_reference(self):
        with pytest.raises(ValueError):
            shadow_of(TangentHoroball(0, 0.6))

    def test_band_validation(self):
        with pytest.raises(ValueError):
            CurvatureBand(a=0.5)


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
    def test_tangent_unit_pair(self):
        q = quadratic_separation(TangentHoroball(0, 0.5), TangentHoroball(1, 0.5))
        assert (q.lhs, q.rhs, q.holds, q.tangent) == (1, 1, True, True)

    def test_geometric_neighbors(self):
        q = quadratic_separation(TangentHoroball(0, 1), TangentHoroball(-8, 16))
        assert (q.lhs, q.rhs, q.tangent) == (64, 64, True)

    def test_disjoint_pair(self):
        q = quadratic_separation(TangentHoroball(0, 0.25), TangentHoroball(1, 0.25))
        assert (q.lhs, q.rhs, q.holds, q.tangent) == (1, 0.25, True, False)

    def test_equal_bases_rejected(self):
        with pytest.raises(ValueError):
            quadratic_separation(TangentHoroball(0, 1), TangentHoroball(0, 2))

    def test_exact_mode(self):
        q = quadratic_separation(
            TangentHoroball((Fraction(0),), Fraction(1, 2)),
            TangentHoroball((Fraction(1),), Fraction(1, 2)), tol=0)
        assert q.tangent and q.holds

    def test_agrees_with_dist_alg_on_random_pairs(self):
        rnd = random.Random(10)
        for _ in range(10_000):
            b1, r1 = rnd.uniform(-3, 3), rnd.uniform(0.02, 1.2)
            b2, r2 = rnd.uniform(-3, 3), rnd.uniform(0.02, 1.2)
            if abs(b1 - b2) < 1e-9:
                continue
            q = quadratic_separation(TangentHoroball(b1, r1), TangentHoroball(b2, r2))
            alg = dist_alg_horoballs(TangentHoroball(b1, r1), TangentHoroball(b2, r2))
            if abs(alg) > 1e-9:
                assert q.holds == (alg > 0)


def annulus_components_2d(h, s):
    """Both annulus components of the shadow of h on the line, left first."""
    return tuple(component_of(h, s, side).interval for side in (Side.LEFT, Side.RIGHT))


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

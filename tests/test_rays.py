import json
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from horoshadow.cli import main
from horoshadow.halfspace import (
    ArcGeodesic,
    AtInfinityHoroball,
    Point,
    TangentHoroball,
    VerticalGeodesic,
    param_of,
    penetration_depth,
    point_to_horoball_dist,
)
from horoshadow.packings import HoroballFamily, extremal, farey
from horoshadow.rays import (
    CONE_CONSTANT,
    TRIANGLE_CONSTANT,
    biinfinite_line,
    glue_constants,
    ray_from_point,
    verify_avoidance,
)
from horoshadow.sharp2d import sharp_shrink_time
from test_halfspace import hyperbolic_dist, point_at, shrink

T1 = sharp_shrink_time(1)
GOLDEN = (1 + math.sqrt(5)) / 2


class TestGlueConstants:
    def test_values(self):
        gc = glue_constants()
        assert gc["cone"] == pytest.approx(math.log(2 + math.sqrt(5)), abs=1e-15)
        assert gc["triangle"] == pytest.approx(math.log(1 + math.sqrt(2)), abs=1e-15)
        assert gc["cone"] > gc["triangle"]


class TestVerifyAvoidance:
    def test_golden_vertical_avoids_shrunk_farey(self):
        fam = farey(300, (1, 2))
        rep = verify_avoidance(VerticalGeodesic(GOLDEN), fam, 0.27)
        assert rep.ok and rep.margin > 0

    def test_vertical_at_a_base_point_fails(self):
        rep = verify_avoidance(VerticalGeodesic(0.5), farey(2, (0, 1)), 0.0)
        assert not rep.ok
        bad = dict(rep.max_depths)
        idx = farey(2, (0, 1)).labels.index("1/2")
        assert bad[idx] == math.inf

    def test_tangency_counts_as_avoiding(self):
        fam = HoroballFamily(2, [AtInfinityHoroball(1)])
        rep = verify_avoidance(ArcGeodesic(-1, 1), fam, 0.0)
        assert rep.ok
        assert rep.max_depths[0][1] == pytest.approx(0, abs=1e-15)

    def test_margin_monotone_in_t(self):
        fam = farey(50, (0, 1))
        g = VerticalGeodesic(GOLDEN - 1)
        margins = [verify_avoidance(g, fam, t).margin for t in (0.5, 0.8, 1.2, 2.0)]
        assert margins == sorted(margins)

    def test_interval_logic_matches_sampling(self):
        # depth of a restricted geodesic against a shrunk family agrees
        # with a dense parameter sweep (checked on the deepest handful of
        # horoballs per instance)
        rnd = random.Random(41)
        fam = farey(20, (0, 1))
        for _ in range(12):
            lo, hi = sorted((rnd.uniform(-1.5, 1.5), rnd.uniform(-1.5, 1.5)))
            if hi - lo < 0.1:
                continue
            g = ArcGeodesic(rnd.uniform(-1, 0.2), rnd.uniform(0.3, 1.5), (lo, hi))
            t = rnd.uniform(0, 1)
            rep = verify_avoidance(g, fam, t)
            deepest = sorted(rep.max_depths, key=lambda p: -p[1])[:5]
            for idx, depth in deepest:
                h = shrink(fam.horoballs[idx], t)
                sampled = max(
                    -point_to_horoball_dist(point_at(g, lo + (hi - lo) * k / 800), h)
                    for k in range(801))
                assert depth >= sampled - 1e-9
                assert depth <= sampled + 1e-5


    def test_depth_minus_t_is_the_depth_into_the_shrunk_family(self):
        rnd = random.Random(7)
        fam = farey(15, (0, 1), include_infinity=True)
        for _ in range(20):
            lo, hi = sorted((rnd.uniform(-3, 3), rnd.uniform(-3, 3)))
            g = ArcGeodesic(rnd.uniform(-1, 0.4), rnd.uniform(0.5, 2), (lo, hi))
            t = rnd.uniform(0, 2)
            for i, depth in verify_avoidance(g, fam, t).max_depths:
                assert depth == pytest.approx(
                    penetration_depth(g, shrink(fam.horoballs[i], t)), abs=1e-12)

    @pytest.mark.parametrize("t", [-0.1, math.inf, math.nan])
    def test_rejects_a_shrink_time_outside_zero_to_infinity(self, t):
        with pytest.raises(ValueError):
            verify_avoidance(VerticalGeodesic(GOLDEN), farey(3, (0, 1)), t)


class TestRayFromPoint:
    def test_farey_with_reference(self):
        fam = farey(100, (0, 1), include_infinity=True)
        t = T1 + CONE_CONSTANT + 0.01
        res = ray_from_point(fam, Point(0.5, 0.9), t)
        assert res.report.ok
        assert res.nearest_clear
        # the ray really starts at the requested point
        lo, hi = res.ray.param_range
        start = point_at(res.ray, lo if math.isfinite(lo) else hi)
        assert hyperbolic_dist(start, Point(0.5, 0.9)) < 1e-7

    def test_single_far_horoball_goes_straight(self):
        fam = HoroballFamily(2, [TangentHoroball(10.0, 0.5)])
        res = ray_from_point(fam, Point(0.0, 1.0), 1.0)
        assert res.report.ok and res.nearest_clear
        assert res.endpoint is not None

    def test_point_on_horosphere_accepted(self):
        fam = farey(100, (0, 1), include_infinity=True)
        t = T1 + CONE_CONSTANT + 0.01
        res = ray_from_point(fam, Point(0.5, 0.5), t)  # tangent to two balls
        assert res.report.ok and res.nearest_clear

    def test_point_inside_rejected(self):
        fam = farey(100, (0, 1))
        with pytest.raises(ValueError):
            ray_from_point(fam, Point(0.5, 0.05), 2.0)  # inside the ball at 1/2

    def test_low_point_between_horoballs(self):
        fam = farey(40, (0, 1), include_infinity=True)
        t = T1 + CONE_CONSTANT + 0.01
        # lower a point at a badly approximable base until just outside
        # every horoball
        base = (3 - math.sqrt(5)) / 2
        height = 0.95
        while min(point_to_horoball_dist(Point(base, height * 0.9), h)
                  for h in fam.horoballs) > 0:
            height *= 0.9
        x = Point(base, height)
        assert min(point_to_horoball_dist(x, h) for h in fam.horoballs) > -1e-9
        res = ray_from_point(fam, x, t)
        assert res.report.ok and res.nearest_clear

    def test_nearest_horoball_never_entered(self):
        fam = farey(60, (0, 1), include_infinity=True)
        t = T1 + CONE_CONSTANT + 0.01
        for base, h in ((0.5, 0.7), (0.5, 0.9), (0.48, 0.8)):
            res = ray_from_point(fam, Point(base, h), t)
            depth0 = penetration_depth(res.ray, fam.horoballs[res.nearest_index])
            assert depth0 <= 1e-9


#: a start point directly above the base of its nearest tangent horoball,
#: so the geodesic from that base is vertical and the ray must climb
ABOVE_A_BASE = {
    "2d": (farey(1, (0, 1)), Point(0.0, 2.0), 2.2),
    "2d+inf": (farey(2, (0, 1), include_infinity=True), Point(0.5, 0.26),
               T1 + CONE_CONSTANT + 0.01),
    "3d": (HoroballFamily(3, [TangentHoroball((0.0, 0.0), 0.5),
                              TangentHoroball((3.0, 0.0), 0.5)]),
           Point((0.0, 0.0), 1.5), 2.2),
    "3d+inf": (HoroballFamily(3, [TangentHoroball((0.0, 0.0), 0.5),
                                  TangentHoroball((3.0, 0.0), 0.5),
                                  AtInfinityHoroball(3.0)]),
               Point((0.0, 0.0), 1.5), 3.0),
}


class TestRayAboveABase:
    @pytest.mark.parametrize("name", sorted(ABOVE_A_BASE))
    def test_leaves_the_nearest_horoball(self, name):
        fam, x, t = ABOVE_A_BASE[name]
        res = ray_from_point(fam, x, t)
        h0 = fam.horoballs[res.nearest_index]
        assert isinstance(h0, TangentHoroball)
        assert tuple(map(float, h0.base)) == tuple(map(float, x.base))
        assert res.report.ok and res.nearest_clear
        assert math.isfinite(res.report.margin)
        lo, hi = res.ray.param_range
        start = point_at(res.ray, lo if math.isfinite(lo) else hi)
        assert hyperbolic_dist(start, x) < 1e-7

    @pytest.mark.parametrize("name", ["2d", "3d"])
    def test_climbs_to_infinity_when_nothing_is_above(self, name):
        fam, x, t = ABOVE_A_BASE[name]
        res = ray_from_point(fam, x, t)
        assert isinstance(res.ray, VerticalGeodesic)
        assert res.ray.param_range == (math.log(x.height), math.inf)
        assert res.endpoint is None

    def test_cli(self, tmp_path, capsys):
        fam_file = tmp_path / "fam.json"
        assert main(["pack", "farey", "--qmax", "1", "--out", str(fam_file)]) == 0
        capsys.readouterr()
        assert main(["ray", "--family", str(fam_file), "--point", "0;2", "--t", "2.2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certified"] and doc["endpoint"] is None
        assert doc["margin"] == pytest.approx(2.2 + math.log(2), abs=1e-12)


class TestRayNearABase:
    """A start point just beside the base of its nearest horoball: the
    geodesic from that base is an arc whose far end lies ~4 / off**2
    away, and the start point must still be found on it."""

    @pytest.mark.parametrize("off", [0.0, 1e-9, 1e-6, 1e-3])
    def test_certifies(self, off):
        res = ray_from_point(farey(1, (0, 1)), Point(off, 2.0), 2.2)
        assert res.report.ok and res.nearest_clear

    def test_parameter_is_read_from_the_ends(self):
        # |p - a|^2 / |p - b|^2 = e^(2t), heights included, on every arc
        rnd = random.Random(3)
        for _ in range(200):
            a, b = rnd.uniform(-3, 3), rnd.uniform(-3, 3)
            if abs(a - b) < 1e-3:
                continue
            g = ArcGeodesic(a, b)
            t = rnd.uniform(-8, 8)
            assert param_of(g, point_at(g, t)) == pytest.approx(t, abs=1e-9)

    def test_ray_starts_at_the_start_point(self):
        # the ray's arc has half-width ~2e18; its start must be found
        # again at the start point, not 2.4e-7 away as m + rho tanh(t) u
        # put it
        ray = ray_from_point(farey(1, (0, 1)), Point(1e-9, 2.0), 2.2).ray
        start = point_at(ray, ray.param_range[0])
        assert start.base[0] == pytest.approx(1e-9, rel=1e-6)
        assert start.height == pytest.approx(2.0, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2), st.data(), st.floats(-30, 30))
    def test_point_at_round_trips_far_out(self, dim, data, t):
        point = st.tuples(*[st.floats(-3, 3, allow_nan=False)] * dim)
        a, b = data.draw(point), data.draw(point)
        assume(sum((x - y) ** 2 for x, y in zip(a, b)) >= 1e-6)
        g = ArcGeodesic(a, b)
        assert param_of(g, point_at(g, t)) == pytest.approx(t, abs=1e-9)

    def test_point_at_the_far_end_found_on_the_arc(self):
        # b - a and p - a round differently next to b; the inversion at a
        # left a gap of one rounding of 1/3, above the tolerance at height
        # 3e-10, where the inversion at b leaves none
        g = ArcGeodesic(3.0, 2.220446049250313e-16)
        assert param_of(g, point_at(g, 23.0)) == pytest.approx(23.0, abs=1e-9)
        assert param_of(g, point_at(g, -23.0)) == pytest.approx(-23.0, abs=1e-9)

    def test_point_off_the_geodesic_rejected(self):
        with pytest.raises(ValueError, match="not on the arc"):
            param_of(ArcGeodesic(0.0, 2.0), Point(1.0, 1.001))
        with pytest.raises(ValueError, match="not on the vertical"):
            param_of(VerticalGeodesic(0.0), Point(1e-3, 1.0))


class TestBiinfiniteLine:
    def test_farey_with_reference(self):
        fam = farey(100, (0, 1), include_infinity=True)
        t = T1 + TRIANGLE_CONSTANT + 0.01
        res = biinfinite_line(fam, t)
        assert res.report.ok
        # both endpoints in the shadow of the largest horoball
        b0, r0 = 0.0, 0.5
        for (e,) in res.endpoints:
            assert abs(e - b0) <= r0 + 1e-12
        # the arc misses the reference horoball outright
        ref = fam.horoballs[-1]
        assert isinstance(ref, AtInfinityHoroball)
        assert penetration_depth(res.line, ref) <= 0

    def test_extremal_family(self):
        fam = extremal(10)
        res = biinfinite_line(fam, T1 + TRIANGLE_CONSTANT + 0.01)
        assert res.report.ok

    def test_two_horoballs(self):
        fam = HoroballFamily(2, [TangentHoroball(0.0, 0.5), TangentHoroball(1.0, 0.5)])
        res = biinfinite_line(fam, T1 + TRIANGLE_CONSTANT + 0.01)
        assert res.report.ok
        a, b = res.endpoints
        assert a[0] < 0 < b[0] < 1

    def test_depth_convexity_along_line(self):
        # the inside-parameter set of each horoball is one interval:
        # sampled depths rise then fall
        fam = farey(30, (0, 1))
        res = biinfinite_line(fam, T1 + TRIANGLE_CONSTANT + 0.01)
        g = res.line
        h = fam.horoballs[0]
        vals = [-point_to_horoball_dist(point_at(g, -3 + 6 * k / 400), h)
                for k in range(401)]
        peak = vals.index(max(vals))
        assert all(x <= y + 1e-12 for x, y in zip(vals[:peak], vals[1:peak + 1]))
        assert all(x >= y - 1e-12 for x, y in zip(vals[peak:], vals[peak + 1:]))

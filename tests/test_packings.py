import math
import random
from fractions import Fraction

import pytest

from horoshadow import packings
from horoshadow.halfspace import AtInfinityHoroball, TangentHoroball, vnorm2, vsub
from horoshadow.numeric import SHARP_SCALE
from horoshadow.packings import (
    HoroballFamily,
    extremal,
    farey,
    geometric,
    random_disjoint,
    validate_disjoint,
)


def tangent(a, b):
    """Exact tangency |x - x'|^2 = 4 r r' of two tangent horoballs."""
    return vnorm2(vsub(a.base, b.base)) == 4 * a.radius * b.radius


class TestFarey:
    def test_qmax_one(self):
        fam = farey(1, (0, 1))
        assert [(h.base[0], h.radius) for h in fam.horoballs] == \
            [(0, Fraction(1, 2)), (1, Fraction(1, 2))]
        assert tangent(*fam.horoballs)

    def test_qmax_two_adds_half(self):
        fam = farey(2, (0, 1))
        assert "1/2" in fam.labels
        h = fam.horoballs[fam.labels.index("1/2")]
        assert (h.base[0], h.radius) == (Fraction(1, 2), Fraction(1, 8))

    def test_tangency_is_unimodularity(self):
        # |p q' - p' q| = 1 iff tangent; exhaustive in exact arithmetic
        fam = farey(30, (0, 1))
        items = [(Fraction(lbl.split("/")[0] + "/" + lbl.split("/")[1]), h)
                 for lbl, h in zip(fam.labels, fam.horoballs)]
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                fi, hi = items[i]
                fj, hj = items[j]
                det = abs(fi.numerator * fj.denominator -
                          fj.numerator * fi.denominator)
                assert tangent(hi, hj) == (det == 1)

    def test_validates(self):
        assert validate_disjoint(farey(5, (0, 1)), exact=True).ok

    def test_include_infinity(self):
        fam = farey(3, (0, 1), include_infinity=True)
        assert isinstance(fam.horoballs[-1], AtInfinityHoroball)
        assert validate_disjoint(fam).ok

    def test_empty_range(self):
        with pytest.raises(ValueError):
            farey(1, (Fraction(1, 3), Fraction(1, 3)))


class TestGeometric:
    def test_first_two_members(self):
        fam = geometric(0, 1)
        assert (fam.horoballs[0].base[0], fam.horoballs[0].radius) == (0, 1)
        assert (fam.horoballs[1].base[0], fam.horoballs[1].radius) == (-8, 16)

    def test_consecutive_tangency_exact(self):
        fam = geometric(-8, 8)
        for a, b in zip(fam.horoballs, fam.horoballs[1:]):
            assert tangent(a, b)

    def test_fixed_point(self):
        fam = geometric(-40, -40)
        assert abs(fam.horoballs[0].base[0] - Fraction(8, 15)) < Fraction(1, 10 ** 40)

    def test_packing_identity_with_quarter(self):
        # r r' = d^2 / 4 exactly on consecutive members, <= elsewhere
        fam = geometric(-3, 3)
        hs = fam.horoballs
        for i in range(len(hs)):
            for j in range(i + 1, len(hs)):
                d2 = (hs[i].base[0] - hs[j].base[0]) ** 2
                assert 4 * hs[i].radius * hs[j].radius <= d2

    def test_common_tangent_line(self):
        # every member is tangent to the invariant line through (8/15, 0)
        # that touches the first ball; oracle: distance from (base, r) to
        # the line equals r
        fam = geometric(-2, 3)
        # the tangent line through (8/15, 0): find it from two small balls
        # direction via the tangency points of members 0 and 1
        c = 8 / 15
        # line through (c,0) tangent to circle center (0,1) radius 1:
        # unit normal n with n . ((0,1)-(c,0)) = 1
        # solve for angle
        from math import cos, sin
        best = None
        for k in range(200000):
            th = k * math.pi / 200000
            n = (cos(th), sin(th))
            if abs(n[0] * (0 - c) + n[1] * 1 - 1) < 2e-5:
                best = n
                break
        assert best is not None
        for h in fam.horoballs:
            dist = best[0] * (float(h.base[0]) - c) + best[1] * float(h.radius)
            assert dist == pytest.approx(float(h.radius), rel=2e-4)


class TestExtremal:
    def test_children_tangent_at_critical_scale(self):
        fam = extremal(1)
        s = SHARP_SCALE
        root, left, right = fam.horoballs
        assert right.base[0] == pytest.approx((1 + s) / 2)
        assert right.radius == pytest.approx((1 - s) / 2)
        for child in (left, right):
            assert vnorm2(vsub(root.base, child.base)) == \
                pytest.approx(4 * root.radius * child.radius)

    def test_critical_scale_is_quadratic_root(self):
        # tangency happens exactly at the positive root of s^2 + 10s - 7
        s = SHARP_SCALE
        assert s * s + 10 * s - 7 == pytest.approx(0, abs=1e-12)

    def test_overlap_below_critical_scale(self):
        fam = extremal(1, 0.5)
        assert [h.base[0] for h in fam.horoballs[1:]] == [-0.75, 0.75]
        assert [h.radius for h in fam.horoballs[1:]] == [0.25, 0.25]
        root, right = fam.horoballs[0], fam.horoballs[2]
        assert vnorm2(vsub(root.base, right.base)) == pytest.approx(9 / 16)
        assert 4 * root.radius * right.radius == pytest.approx(1)
        assert not validate_disjoint(fam).ok

    def test_count_and_disjointness(self):
        for g in (3, 6):
            fam = extremal(g)
            assert len(fam.horoballs) == 2 ** (g + 1) - 1
            assert validate_disjoint(fam).ok

    def test_child_shadows_tile_annulus(self):
        s = SHARP_SCALE
        fam = extremal(1, s)
        root, left, right = fam.horoballs
        assert (right.base[0] - right.radius, right.base[0] + right.radius) == \
            pytest.approx((s, 1))
        assert (left.base[0] - left.radius, left.base[0] + left.radius) == \
            pytest.approx((-1, -s))


class TestRandomDisjoint:
    def test_single(self):
        fam = random_disjoint(1, 2, 0)
        assert len(fam.horoballs) == 1
        with pytest.raises(ValueError):
            random_disjoint(1, 1, 0)

    def test_deterministic(self):
        a = random_disjoint(20, 2, 7)
        b = random_disjoint(20, 2, 7)
        assert a.horoballs == b.horoballs

    def test_attempt_cap(self, monkeypatch):
        class Constant(random.Random):
            def random(self):
                return 0.5

        # every candidate sits on the first one, so only the first is kept
        monkeypatch.setattr(packings.random, "Random", Constant)
        with pytest.raises(RuntimeError, match="placed 1 after 801 attempts"):
            random_disjoint(2, 3)

    def test_validates_2d_and_3d(self):
        for count, dim in ((50, 2), (50, 3), (1000, 2), (300, 4)):
            fam = random_disjoint(count, dim, 7)
            assert len(fam.horoballs) == count
            assert validate_disjoint(fam).ok


class TestValidate:
    def test_overlapping_pair_detected(self):
        fam = HoroballFamily(2, [TangentHoroball(0, 1), TangentHoroball(1, 1)])
        report = validate_disjoint(fam)
        assert not report.ok and report.violations == [(0, 1)]

    def test_reference_height_violation(self):
        fam = HoroballFamily(2, [TangentHoroball(0, 0.75), AtInfinityHoroball(1)])
        assert not validate_disjoint(fam).ok

    def test_extremal_ok(self):
        assert validate_disjoint(extremal(3)).ok

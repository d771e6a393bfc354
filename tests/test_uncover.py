import cmath
import dataclasses
import importlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horoshadow.heisenberg import (
    CC_EQUIVALENCE,
    IDENTITY,
    HeisPoint,
    cc_dist,
    cygan_dist,
    dilate,
    heis_modulus,
    heis_mul,
    heisenberg_space,
)
from horoshadow.numeric import DEFAULT_TOL, CertificateError
from horoshadow.packings import farey
from horoshadow.uncover import (
    _DIST_REL_ERR,
    BallFamily,
    canonical_ball,
    euclidean_space,
    generic_shrink_time,
    max_scale_for_load,
    refine_step,
    safe_scale,
    uncover,
    uncover_two,
)
from test_packing_oracles import assert_packing_matches_oracle, brute_validate_packing
from test_scan_oracles import check_uncover, old_checked_prepare

# the package exports the function `uncover`, which shadows the module
uncover_mod = importlib.import_module("horoshadow.uncover")

HEIS_MODULUS = lambda e: 1 - (1 + e * e / math.pi) ** -0.5


def farey_balls(q_max, space_dim=1):
    fam = farey(q_max, (0, 1))
    return [((float(h.base[0]),), float(h.radius)) for h in fam.horoballs]


class TestScaleBound:
    def test_root_of_defining_quadratic(self):
        # f(load) is the positive root of load (1+s)^2 = 2 (1-s)
        for load in (0.3, 1.0, 1.5, 1.9):
            s = max_scale_for_load(load)
            assert load * (1 + s) ** 2 - 2 * (1 - s) == pytest.approx(0, abs=1e-12)

    def test_endpoints(self):
        assert max_scale_for_load(2) == pytest.approx(0, abs=1e-15)
        assert max_scale_for_load(1) == pytest.approx(math.sqrt(5) - 2, abs=1e-15)

    def test_value_at_three_halves(self):
        # frozen from the quadratic-root oracle above
        assert max_scale_for_load(1.5) == pytest.approx(0.0971675407097270, abs=1e-13)

    @given(st.floats(min_value=0.01, max_value=1.99),
           st.floats(min_value=0.01, max_value=1.99))
    @settings(max_examples=100)
    def test_strictly_decreasing(self, a, b):
        if abs(a - b) < 1e-9:
            return
        lo, hi = sorted((a, b))
        assert max_scale_for_load(lo) > max_scale_for_load(hi)

    def test_domain(self):
        with pytest.raises(ValueError):
            max_scale_for_load(0)


class TestSafeScale:
    def test_lines_closed_form(self):
        assert safe_scale(0.25, has_lines=True) == pytest.approx(
            math.sqrt(5) - 2, abs=1e-15)

    def test_identity_modulus_reduces_to_load_six_d(self):
        got = safe_scale(0.25, modulus=lambda e: e)
        assert got == pytest.approx(max_scale_for_load(1.5), abs=1e-9)

    def test_heisenberg_value(self):
        # oracle: the optimum solves eps = 1 - delta(eps), a quartic with
        # positive root eps* = sqrt(pi (sqrt(1 + 4/pi) - 1) / 2)
        eps_star = math.sqrt(math.pi * (math.sqrt(1 + 4 / math.pi) - 1) / 2)
        want = max_scale_for_load(1 + eps_star)
        got = safe_scale(0.25, modulus=HEIS_MODULUS)
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(0.0183738217568, abs=1e-9)

    def test_decreasing_in_packing_constant(self):
        vals_lines = [safe_scale(d, has_lines=True) for d in (0.1, 0.2, 0.3, 0.45)]
        assert vals_lines == sorted(vals_lines, reverse=True)
        vals = [safe_scale(d, modulus=lambda e: e) for d in (0.05, 0.1, 0.2, 0.25)]
        assert vals == sorted(vals, reverse=True)

    def test_domains(self):
        with pytest.raises(ValueError):
            safe_scale(0.3)  # needs a modulus and D <= 1/4
        with pytest.raises(ValueError):
            safe_scale(0.6, has_lines=True)


class TestShrinkTime:
    def test_real_hyperbolic(self):
        got = generic_shrink_time(1, None, has_lines=True)
        assert got == pytest.approx(-math.log(math.sqrt(5) - 2), abs=1e-12)

    def test_identity_modulus(self):
        got = generic_shrink_time(1, lambda e: e)
        assert got == pytest.approx(-math.log(max_scale_for_load(1.5)), abs=1e-9)

    def test_heisenberg_instance(self):
        got = generic_shrink_time(math.sqrt(math.pi), HEIS_MODULUS, a=2)
        assert got == pytest.approx(4.9157, abs=1e-3)

    @pytest.mark.parametrize("a,c_max", [(1, 0.5), (2, 2 ** -0.5)])
    def test_pinching_gives_the_outer_shadow_constant(self, a, c_max):
        # c_max = 2^(-1/a) is 0.5 at a = 1 and 2^-0.5 at a = 2, bit for bit
        s0 = safe_scale(0.25, HEIS_MODULUS)
        want = -math.log(s0 / (2 * c_max * math.sqrt(math.pi)))
        assert generic_shrink_time(math.sqrt(math.pi), HEIS_MODULUS, a=a) == want

    @pytest.mark.parametrize("C", [0.5, float("nan")])
    def test_refuses_equivalence_below_one(self, C):
        with pytest.raises(ValueError, match="equivalence constant must be at least 1"):
            generic_shrink_time(C, None, has_lines=True)

    @pytest.mark.parametrize("a", [0.5, 0.999, float("nan")])
    def test_refuses_pinching_below_one(self, a):
        with pytest.raises(ValueError, match="pinching parameter a must be >= 1"):
            generic_shrink_time(1, HEIS_MODULUS, a=a)


class TestCanonicalBall:
    def test_line_midpoint(self):
        sp = euclidean_space(1)
        K = canonical_ball(sp, (0.0,), 1.0, 0.5, (1.0,))
        assert K.center == pytest.approx((0.75,))
        assert K.radius == 0.25

    def test_plane(self):
        sp = euclidean_space(2)
        K = canonical_ball(sp, (0.0, 0.0), 2.0, 1.0, (2.0, 0.0))
        assert K.center == pytest.approx((1.5, 0.0))
        assert K.radius == 0.5

    def test_contains_p_and_meets_inner(self):
        sp = euclidean_space(2)
        rnd = random.Random(13)
        for _ in range(100):
            r2 = rnd.uniform(0.5, 3)
            r1 = rnd.uniform(0.05, r2 * 0.9)
            ang = rnd.uniform(0, 2 * math.pi)
            p = (r2 * math.cos(ang), r2 * math.sin(ang))
            K = canonical_ball(sp, (0.0, 0.0), r2, r1, p)
            assert sp.dist(K.center, p) == pytest.approx(K.radius, abs=1e-9)
            assert sp.dist(K.center, (0, 0)) == pytest.approx((r2 + r1) / 2, abs=1e-9)
            # contained in the closed annulus, touching the inner ball
            assert sp.dist(K.center, (0, 0)) - K.radius == pytest.approx(r1, abs=1e-9)
            assert sp.dist(K.center, (0, 0)) + K.radius == pytest.approx(r2, abs=1e-9)

    def test_sphere_precondition(self):
        sp = euclidean_space(1)
        with pytest.raises(ValueError):
            canonical_ball(sp, (0.0,), 1.0, 0.5, (0.8,))


class TestRefineStep:
    # hand-checked instances: K = B(0.6, 0.4) is the canonical ball of
    # (0, 1) at scale 0.2
    def setup_method(self):
        self.sp = euclidean_space(1)
        self.K = canonical_ball(self.sp, (0.0,), 1.0, 0.2, (1.0,))

    def test_far_ball_gives_none(self):
        # scaled ball [2.9, 3.1] misses K = [0.2, 1.0]
        assert refine_step(self.sp, self.K, ((3.0,), 0.5), 0.2) is None

    def test_case_one_by_hand(self):
        # other = (1.02, 0.2): scaled ball [0.98, 1.06] meets K at 0.98;
        # d(xi', eta) = 0.42 >= r' so the new center is 1.02 - 0.2*0.6 = 0.9
        # and the new ball [0.82, 0.98] sits inside [0.2, 1.0]
        K2 = refine_step(self.sp, self.K, ((1.02,), 0.2), 0.2)
        assert K2 is not None
        assert K2.center == pytest.approx((0.9,))
        assert K2.radius == pytest.approx(0.08)

    def test_merged_case_by_hand(self):
        # other = (0.62, 0.04) centered near eta = 0.6: scaled ball
        # [0.612, 0.628] meets K; extension from 0.62 through 0.6 gives
        # zeta = 0.58, new center 0.62 - 0.04*0.6 = 0.596, ball
        # [0.58, 0.612] inside K
        K2 = refine_step(self.sp, self.K, ((0.62,), 0.04), 0.2)
        assert K2 is not None
        assert K2.center == pytest.approx((0.596,))
        assert K2.radius == pytest.approx(0.016)

    def test_deep_center_in_plane(self):
        # other centered essentially at K.center in the plane: any
        # canonical ball works, containment asserted post hoc
        sp = euclidean_space(2)
        K = canonical_ball(sp, (0.0, 0.0), 1.0, 0.2, (1.0, 0.0))
        K2 = refine_step(sp, K, (K.center, 0.05), 0.1)
        assert K2 is not None
        gap = sp.dist(K2.center, K.center) + K2.radius
        assert gap <= K.radius + 1e-9

    def test_containment_violation_raises(self):
        # a wildly oversized partner violates the packing hypothesis and
        # the post-hoc assertion must catch it
        with pytest.raises(CertificateError):
            refine_step(self.sp, self.K, ((0.8,), 0.9), 0.2)


class TestUncover:
    def test_single_ball(self):
        fam = BallFamily(euclidean_space(1), [((0.0,), 1.0)])
        w = uncover(fam, 0.1)
        assert 0.1 <= abs(w.output[0]) <= 1.0
        assert len(w.chain) == 1

    def test_two_tangent_balls(self):
        fam = BallFamily(euclidean_space(1), [((0.0,), 0.5), ((1.0,), 0.5)])
        w = uncover(fam, 0.2)
        assert abs(w.output[0] - 0.0) >= 0.1 - 1e-12
        assert abs(w.output[0] - 1.0) >= 0.1 - 1e-12

    def test_farey_50_brute_force(self):
        balls = farey_balls(50)
        fam = BallFamily(euclidean_space(1), balls)
        w = uncover(fam, 0.23)
        for (c,), r in balls:
            assert abs(w.output[0] - c) >= 0.23 * r - 1e-9

    def test_witness_chain_invariants(self):
        balls = farey_balls(80)
        fam = BallFamily(euclidean_space(1), balls)
        s = 0.2
        w = uncover(fam, s)
        sp = fam.space
        positions = [n for n, _ in w.chain]
        assert positions == sorted(set(positions))
        for (_, a), (_, b) in zip(w.chain, w.chain[1:]):
            assert sp.dist(a.center, b.center) + b.radius <= a.radius + 1e-9
        last = w.chain[-1][1]
        assert w.output == last.center
        for _, k in w.chain:
            c, r = fam.balls[k.index]
            assert sp.dist(k.center, c) == pytest.approx(r * (1 + s) / 2, abs=1e-9)
            assert k.radius == pytest.approx(r * (1 - s) / 2, abs=1e-9)

    def test_scaling_invariance(self):
        balls = farey_balls(40)
        fam = BallFamily(euclidean_space(1), balls)
        w = uncover(fam, 0.2)
        lam = 3.7
        scaled = BallFamily(euclidean_space(1),
                            [((lam * c,), lam * r) for (c,), r in balls])
        w2 = uncover(scaled, 0.2)
        assert w2.output[0] == pytest.approx(lam * w.output[0], rel=1e-9)

    def test_rejects_scale_at_threshold(self):
        fam = BallFamily(euclidean_space(1), [((0.0,), 1.0)])
        with pytest.raises(ValueError):
            uncover(fam, math.sqrt(5) - 2)

    def test_rejects_undersized_start(self):
        fam = BallFamily(euclidean_space(1), [((0.0,), 1.0), ((9.0,), 0.01)])
        with pytest.raises(ValueError):
            uncover(fam, 0.1, start=1)

    def test_qualified_start_accepted(self):
        fam = BallFamily(euclidean_space(1), [((0.0,), 1.0), ((9.0,), 0.99)])
        w = uncover(fam, 0.1, start=1)
        assert w.chain[0][1].index == 1

    def test_two_dimensional_family(self):
        rnd = random.Random(21)
        balls = []
        while len(balls) < 25:
            c = (rnd.uniform(0, 6), rnd.uniform(0, 6))
            r = rnd.uniform(0.1, 0.9)
            if all((c[0] - c2[0]) ** 2 + (c[1] - c2[1]) ** 2 >= 4 * r * r2
                   for c2, r2 in balls):
                balls.append((c, r))
        fam = BallFamily(euclidean_space(2), balls)
        w = uncover(fam, 0.2)
        for c, r in balls:
            assert fam.space.dist(w.output, c) >= 0.2 * r - 1e-9


class TestUncoverTwo:
    def test_farey(self):
        balls = farey_balls(50)
        fam = BallFamily(euclidean_space(1), balls)
        w1, w2 = uncover_two(fam, 0.23)
        r0 = max(r for _, r in balls)
        assert abs(w1.output[0] - w2.output[0]) >= 0.23 * r0 - 1e-9
        for (c,), r in balls:
            for w in (w1, w2):
                assert abs(w.output[0] - c) >= 0.23 * r - 1e-9

    def test_single_ball_opposite_sides(self):
        fam = BallFamily(euclidean_space(1), [((0.0,), 1.0)])
        w1, w2 = uncover_two(fam, 0.1)
        assert w1.output[0] * w2.output[0] < 0

    @pytest.mark.parametrize("space", [euclidean_space(1), heisenberg_space()],
                             ids=["euclidean", "heisenberg"])
    def test_member_columns_are_built_once(self, space):
        # the family's gauge columns and radii serve validate_packing,
        # _prepare and both runs; the other columns calls are one point
        sizes = []

        def columns(points):
            sizes.append(len(points))
            return space.gauge.columns(points)

        counted = dataclasses.replace(space, gauge=dataclasses.replace(space.gauge,
                                                                       columns=columns))
        balls = farey_balls(12) if space.has_lines else cc_heisenberg_balls(1, 30)
        fam = BallFamily(counted, balls, 0.25)
        fam.validate_packing()
        uncover_two(fam, 0.5 * safe_scale(0.25, space.modulus, space.has_lines))
        assert sizes[0] == len(balls) and set(sizes[1:]) == {1}
        with pytest.raises(ValueError, match="radii must be positive"):
            BallFamily(space, balls + [(balls[0][0], 0.0)])

    def test_random_family(self):
        import horoshadow.packings as packings
        fam2 = packings.random_disjoint(50, 2, 7)
        balls = [((float(h.base[0]),), float(h.radius)) for h in fam2.horoballs]
        fam = BallFamily(euclidean_space(1), balls)
        w1, w2 = uncover_two(fam, 0.2)
        for (c,), r in balls:
            assert abs(w1.output[0] - c) >= 0.2 * r - 1e-9
            assert abs(w2.output[0] - c) >= 0.2 * r - 1e-9


# ---------------------------------------------------------------------------
# the gauge filters: every filter drops only what the scalar test drops


class TestEuclideanGauge:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda dim: st.tuples(
               *[st.tuples(*[st.floats(-1e3, 1e3)] * dim)] * 2)),
           st.integers(-40, 40))
    def test_agrees_with_dist_within_the_widening(self, pq, k):
        p, q = (tuple(c * 2.0 ** k for c in x) for x in pq)
        space = euclidean_space(len(p))
        gauge = space.gauge
        assert gauge.C == 1
        rho = gauge.rho(gauge.columns([p]), gauge.columns([q]))[0]
        d = space.dist(p, q)
        assert rho * (1 - _DIST_REL_ERR) <= d <= rho * (1 + _DIST_REL_ERR)
        lo, hi = gauge.bounds(gauge.columns([p]), gauge.columns([q]))
        assert lo[0] <= d <= hi[0]


def counting(space):
    """The space with a dist that counts its calls in .calls."""
    calls = []

    def dist(p, q):
        calls.append(1)
        return space.dist(p, q)

    counted = dataclasses.replace(space, dist=dist)
    return counted, calls


class TestScanFilter:
    @pytest.mark.parametrize("over_tol", [0.5, 2.0])
    def test_member_within_tol_of_the_current_ball(self, over_tol):
        # the member's scaled ball misses K by less than tol, so
        # refine_step still refines against it; at this scale the
        # widening of the gauge is below tol, so only the tol of the
        # filter keeps the member
        t, s = 2.0 ** -20, 0.2
        x = 0.6 * t + 0.4 * t + s * 0.1 * t + over_tol * DEFAULT_TOL
        fam = BallFamily(euclidean_space(1), [((0.0,), t), ((x,), 0.1 * t)], 0.25)
        assert _DIST_REL_ERR * x < 0.5 * DEFAULT_TOL
        w = uncover(fam, s)
        assert [K.index for _, K in w.chain] == ([0, 1] if over_tol < 1 else [0])
        check_uncover(fam, s, None, False)

    @pytest.mark.parametrize("beyond", [1e-5, -1e-5])
    def test_near_vertical_member_at_the_prune_distance(self, beyond):
        # near the vertical cc_dist exceeds sqrt(pi) d_Cyg by ~3e-5, so
        # the member lies beyond 3 sup while sqrt(pi) d_Cyg does not
        y1 = HeisPoint(3e-10, 1.0)
        y = dilate(y1, 3 * (1 + beyond) / cc_dist(y1, IDENTITY))
        d = cc_dist(y, IDENTITY)
        assert (d > 3) == (beyond > 0)
        assert CC_EQUIVALENCE * cygan_dist(y, IDENTITY) < 3
        fam = BallFamily(heisenberg_space(), [(IDENTITY, 1.0), (y, 0.01)], 0.25)
        s = 0.9 * safe_scale(0.25, heis_modulus)
        a0, order = uncover_mod._prepare(fam, s, None, DEFAULT_TOL)
        assert (a0, order) == old_checked_prepare(fam, s, None, DEFAULT_TOL)
        assert order == ([] if beyond > 0 else [1])


def cc_heisenberg_balls(seed, count, D=0.25):
    """Balls with r r' <= D d_CC^2 (the CC condition, not the Cygan one),
    by rejection sampling in a box, plus pairs at r r' = k D d_CC^2 for k
    near 1 along generic and near-vertical displacements, where the
    Cygan bracket cannot decide and cc_dist does."""
    rng = random.Random(seed)
    side = 1.2 * count ** 0.25

    def point():
        return HeisPoint(complex(rng.uniform(0, side), rng.uniform(0, side)),
                         rng.uniform(-side * side, side * side))

    balls = []
    while len(balls) < count:
        x, r = point(), rng.uniform(0.05, 0.5)
        if all(r * r2 <= D * cc_dist(x, x2) ** 2 for x2, r2 in balls):
            balls.append((x, r))
    for k in (1 - 1e-9, 1 + 1e-9, 0.9, 1.1):
        v = rng.uniform(0.05, 0.5) * rng.choice([-1, 1])
        phase = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        for g in (HeisPoint(rng.uniform(0.1, 0.7) * phase, v),
                  HeisPoint(10 ** rng.uniform(-10, -3) * math.sqrt(abs(v)) * phase, v)):
            x = point()
            y = heis_mul(x, g)
            r = math.sqrt(k * D) * cc_dist(x, y)
            balls += [(x, r), (y, r)]
    rng.shuffle(balls)
    return balls


class TestCCBuiltFamilies:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("grow", [1.0, 2.0])
    def test_validate_packing(self, seed, grow):
        space, calls = counting(heisenberg_space())
        fam = BallFamily(space, [(x, grow * r) for x, r in cc_heisenberg_balls(seed, 40)], 0.25)
        assert_packing_matches_oracle(fam)
        calls.clear()
        got = fam.validate_packing()
        assert calls, "no pair was left to cc_dist"
        assert got == brute_validate_packing(fam)
        assert got != [] and all(0 <= i < j < len(fam.balls) for i, j in got)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("two", [False, True])
    def test_uncover_matches_oracle(self, seed, two):
        balls = cc_heisenberg_balls(seed, 40)
        # drop the members of pairs beyond the packing condition
        bad = BallFamily(heisenberg_space(), balls, 0.25).validate_packing()
        drop = {j for _, j in bad}
        space, calls = counting(heisenberg_space())
        fam = BallFamily(space, [b for i, b in enumerate(balls) if i not in drop], 0.25)
        assert fam.validate_packing() == []
        s = 0.9 * safe_scale(0.25, heis_modulus)
        uncover_mod._prepare(fam, s, None, DEFAULT_TOL)
        assert calls, "no member was left to cc_dist by the prune"
        by_radius = sorted(range(len(fam.balls)), key=lambda i: -fam.balls[i][1])
        for start in (None, by_radius[1]):
            check_uncover(fam, s, start, two)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_euclidean_families(self, dim, seed):
        rng = random.Random(seed)
        side = 30 / dim ** 2
        balls = []
        for _ in range(3000):
            x = tuple(rng.uniform(0, side) for _ in range(dim))
            r = rng.uniform(0.05, 0.5)
            if all(r * r2 <= 0.25 * math.dist(x, x2) ** 2 for x2, r2 in balls):
                balls.append((x, r))
        assert len(balls) >= 20
        for k in (1 - 1e-9, 1 + 1e-9, 0.9, 1.1):
            x = tuple(rng.uniform(0, side) for _ in range(dim))
            y = (x[0] + rng.uniform(0.1, 1),) + x[1:]
            r = math.sqrt(k * 0.25) * math.dist(x, y)
            balls += [(x, r), (y, r)]
        fam = BallFamily(euclidean_space(dim), balls, 0.25)
        assert_packing_matches_oracle(fam)
        for two in (False, True):
            check_uncover(fam, 0.2, None, two)

import math
from fractions import Fraction

import pytest

from horoshadow.halfspace import TangentHoroball, VerticalGeodesic, penetration_depth, shrink
from horoshadow.numeric import CertificateError
from horoshadow.packings import HoroballFamily, extremal, farey
from horoshadow.sharp2d import (
    SHARP_SCALE,
    IntervalComponent,
    Side,
    component_of,
    dioph_solutions,
    scaled_shadow_residual,
    sharp_shrink_time,
    solve_2d,
    step_2d,
)

GOLDEN = (1 + math.sqrt(5)) / 2


def fibonacci_convergents(q_max):
    """Oracle: continued-fraction convergents of the golden ratio are the
    ratios of consecutive Fibonacci numbers."""
    out = []
    a, b = 1, 1
    while b <= q_max:
        out.append(Fraction(a + b, b))  # (F_{k+2}) / (F_{k+1}) approximates phi
        a, b = b, a + b
    return out


class TestSharpShrinkTime:
    def test_constant_curvature_value(self):
        # e^-t equals the tangency scale of the extremal packing, the
        # positive root of s^2 + 10 s - 7 = 0
        t = sharp_shrink_time(1)
        s = math.exp(-t)
        assert s == pytest.approx(SHARP_SCALE, abs=1e-13)
        assert s * s + 10 * s - 7 == pytest.approx(0, abs=1e-12)
        assert t == pytest.approx(-math.log(4 * math.sqrt(2) - 5), abs=1e-15)

    def test_min_branch_at_two(self):
        main = 2 * (math.sqrt(1 + 2 ** 0.5) - 1 - 2 ** -1.5)
        assert math.exp(-sharp_shrink_time(2)) == pytest.approx(
            min(0.5, main), abs=1e-15)
        assert sharp_shrink_time(2) == pytest.approx(0.9151884224566581, abs=1e-12)

    def test_increasing_and_divergent(self):
        ts = [sharp_shrink_time(a) for a in (1, 1.5, 2, 3, 6, 20)]
        assert ts == sorted(ts)
        # the cap branch 1 - 2^(-2/a) decays like (2 log 2)/a, so the
        # shrink time grows logarithmically without bound
        assert sharp_shrink_time(1e6) > math.log(1e6) - 1
        assert sharp_shrink_time(1e12) > math.log(1e12) - 1

    def test_domain(self):
        with pytest.raises(ValueError):
            sharp_shrink_time(0.9)


class TestStep2d:
    def test_margin_rule_by_hand(self):
        # scaled shadow of (0.6, 0.04) at s = 0.4 is [0.584, 0.616], inside
        # K = [0.4, 1]; components [0.56, 0.584] (margins 0.16) and
        # [0.616, 0.64] (margin 0.216): the right one wins
        K = IntervalComponent((0.4, 1.0), 0, Side.RIGHT)
        got = step_2d(K, TangentHoroball(0.6, 0.04), 0.4, index=7)
        assert got.interval == pytest.approx((0.616, 0.64))
        assert got.side is Side.RIGHT and got.horoball_index == 7

    def test_far_shadow_gives_none(self):
        K = IntervalComponent((0.4, 1.0), 0, Side.RIGHT)
        assert step_2d(K, TangentHoroball(5.0, 0.5), 0.4) is None

    def test_extremal_child_tie_goes_right(self):
        # at the critical scale the child shadow tiles K exactly; both
        # components touch the boundary of K, margins tie at zero
        s = SHARP_SCALE
        root = TangentHoroball(0.0, 1.0)
        K = component_of(root, s, Side.RIGHT, 0)
        child = TangentHoroball((1 + s) / 2, (1 - s) / 2)
        got = step_2d(K, child, s, index=1)
        assert got.side is Side.RIGHT

    def test_left_component_when_only_fit(self):
        # other ball hugging the right edge of K: only its left component fits
        K = IntervalComponent((0.0, 1.0), 0, Side.RIGHT)
        got = step_2d(K, TangentHoroball(0.9, 0.12), 0.5)
        assert got.side is Side.LEFT
        assert got.interval == pytest.approx((0.78, 0.84))

    def test_failure_raises(self):
        K = IntervalComponent((0.0, 0.2), 0, Side.RIGHT)
        with pytest.raises(CertificateError):
            step_2d(K, TangentHoroball(0.1, 0.5), 0.6)


class TestSolve2d:
    def test_single_horoball(self):
        fam = HoroballFamily(2, [TangentHoroball(0.0, 1.0)])
        sol = solve_2d(fam, 0.3, side=Side.RIGHT)
        assert 0.3 <= sol.endpoint <= 1.0
        sol_l = solve_2d(fam, 0.3, side=Side.LEFT)
        assert -1.0 <= sol_l.endpoint <= -0.3

    def test_farey_200_brute_force(self):
        fam = farey(200, (0, 1))
        sol = solve_2d(fam, 0.5)
        for q in range(1, 201):
            for p in range(0, q + 1):
                if math.gcd(p, q) == 1:
                    assert abs(sol.endpoint - p / q) >= 0.5 / (2 * q * q) - 1e-9

    def test_sides_give_distinct_endpoints(self):
        fam = farey(60, (0, 1))
        a = solve_2d(fam, 0.4, side=Side.LEFT).endpoint
        b = solve_2d(fam, 0.4, side=Side.RIGHT).endpoint
        assert abs(a - b) >= 0.4 * 0.5 - 1e-9

    def test_extremal_below_critical(self):
        fam = extremal(12)
        sol = solve_2d(fam, SHARP_SCALE - 1e-9)
        assert len(sol.witness) == 13  # seed plus one step per generation
        assert sol.endpoint == pytest.approx(math.sqrt(2) / 2, abs=1e-6)

    def test_witness_invariants(self):
        fam = farey(100, (0, 1))
        sol = solve_2d(fam, 0.5)
        for a, b in zip(sol.witness, sol.witness[1:]):
            assert a.lo - 1e-12 <= b.lo and b.hi <= a.hi + 1e-12
            h = fam.horoballs[b.horoball_index]
            lo, hi = b.interval
            assert hi - lo == pytest.approx(float(h.radius) * (1 - 0.5), abs=1e-12)
        assert sol.witness[0].horoball_index == sol.start_index

    def test_scale_above_sharp_rejected(self):
        fam = farey(10, (0, 1))
        with pytest.raises(ValueError):
            solve_2d(fam, SHARP_SCALE + 1e-6)

    def test_exact_arithmetic_run(self):
        fam = farey(30, (0, 1))
        sol = solve_2d(fam, Fraction(1, 2), tol=0)
        assert isinstance(sol.endpoint, Fraction)
        for _, h in fam.tangent_items():
            assert abs(sol.endpoint - h.base[0]) >= h.radius / 2


class TestResidual:
    def test_extremal_sharpness(self):
        # slightly above the critical scale the scaled shadows swallow the
        # seed component: by generation 12 the largest leftover interval
        # is microscopic
        fam = extremal(12)
        s = SHARP_SCALE + 1e-6
        root = fam.horoballs[0]
        seed = (s * float(root.radius), float(root.radius))
        residual = scaled_shadow_residual(fam, s, seed)
        assert residual  # leaf annuli are never covered at finite depth
        assert max(b - a for a, b in residual) < 1e-3

    def test_below_critical_leaves_room(self):
        fam = extremal(8)
        s = SHARP_SCALE - 1e-3
        root = fam.horoballs[0]
        seed = (s * float(root.radius), float(root.radius))
        residual = scaled_shadow_residual(fam, s, seed)
        sol = solve_2d(fam, s)
        assert any(a - 1e-12 <= sol.endpoint <= b + 1e-12 for a, b in residual)


class TestDiophantine:
    def test_golden_above_threshold_empty(self):
        # 2 q^2 |phi - p/q| attains its infimum 3 - sqrt(5) at 2/1, and
        # e^-0.27 sits just below it
        assert 3 - math.sqrt(5) > math.exp(-0.27)
        assert dioph_solutions(GOLDEN, 0.27, 100_000) == []

    def test_golden_at_zero_contains_convergents(self):
        sols = set(dioph_solutions(GOLDEN, 0.0, 1000))
        for conv in fibonacci_convergents(1000):
            if conv.denominator >= 2:
                # Hurwitz-quality approximations beat 1/(2 q^2)
                assert abs(GOLDEN - conv) < 1 / (2 * conv.denominator ** 2)
                assert conv in sols

    def test_exact_rational_hit(self):
        sols = dioph_solutions(1 / 3, 0.0, 3)
        assert Fraction(1, 3) in sols

    def test_equivalence_with_penetration_depth(self):
        import random
        rnd = random.Random(17)
        xis = [rnd.uniform(0, 1) for _ in range(40)]
        for xi in xis:
            sols = set(dioph_solutions(xi, 0.2, 100))
            g = VerticalGeodesic(xi)
            for q in range(1, 101):
                p = round(xi * q)
                if math.gcd(p, q) != 1:
                    continue
                hb = shrink(TangentHoroball(p / q, 1 / (2 * q * q)), 0.2)
                meets = penetration_depth(g, hb) > 0
                assert meets == (Fraction(p, q) in sols)

    def test_arguments(self):
        with pytest.raises(ValueError):
            dioph_solutions(1.0, 0.1, 0)
        with pytest.raises(ValueError):
            dioph_solutions(1.0, -0.1, 10)


class TestStackingOrder:
    def test_first_met_horoball_is_at_least_as_large(self):
        # in constant curvature, when a vertical geodesic descending from
        # infinity pierces two disjoint open horoballs, the one met first
        # cannot be smaller than the one met second
        import random
        rnd = random.Random(23)
        collected = 0
        while collected < 200:
            x = rnd.uniform(-1, 1)
            r1, r2 = rnd.uniform(0.05, 1.0), rnd.uniform(0.05, 1.0)
            b1 = x + rnd.uniform(-0.95, 0.95) * r1
            b2 = x + rnd.uniform(-0.95, 0.95) * r2
            if (b1 - b2) ** 2 < 4 * r1 * r2:
                continue
            collected += 1
            d1, d2 = abs(x - b1), abs(x - b2)
            top1 = r1 + math.sqrt(r1 * r1 - d1 * d1)
            top2 = r2 + math.sqrt(r2 * r2 - d2 * d2)
            first_r, second_r = (r1, r2) if top1 > top2 else (r2, r1)
            assert second_r <= first_r + 1e-12

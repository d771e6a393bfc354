import math
import re
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horoshadow.halfspace import (
    TangentHoroball,
    VerticalGeodesic,
    penetration_depth,
)
from horoshadow.numeric import SHARP_SCALE, CertificateError
from horoshadow.packings import HoroballFamily, extremal, farey, random_disjoint
from horoshadow.sharp2d import (
    dioph_solutions,
    scaled_shadow_residual,
    sharp_shrink_time,
    solve_2d,
    step_2d,
)
from horoshadow.sharpnd import solve_hnr
from test_halfspace import shrink
from test_packing_oracles import transform

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
        assert step_2d((0.4, 1.0), 0.6, 0.04, 0.4, index=7) == pytest.approx((0.616, 0.64))

    def test_far_shadow_gives_none(self):
        assert step_2d((0.4, 1.0), 5.0, 0.5, 0.4) is None

    def test_extremal_child_tie_goes_right(self):
        # at the critical scale the child shadow tiles K, the right
        # component of the root's shadow, exactly; both components touch
        # the boundary of K, margins tie at zero
        s = SHARP_SCALE
        b, r = (1 + s) / 2, (1 - s) / 2
        assert step_2d((s, 1.0), b, r, s, index=1) == (b + s * r, b + r)

    def test_left_component_when_only_fit(self):
        # other ball hugging the right edge of K: only its left component fits
        assert step_2d((0.0, 1.0), 0.9, 0.12, 0.5) == pytest.approx((0.78, 0.84))

    def test_failure_raises(self):
        with pytest.raises(CertificateError, match="horoball 4"):
            step_2d((0.0, 0.2), 0.1, 0.5, 0.6, index=4)


class TestSolve2d:
    def test_single_horoball(self):
        fam = HoroballFamily(2, [TangentHoroball(0.0, 1.0)])
        (e,) = solve_2d(fam, 0.3, direction=(1,)).endpoint
        assert 0.3 <= e <= 1.0
        (e,) = solve_2d(fam, 0.3, direction=(-1,)).endpoint
        assert -1.0 <= e <= -0.3

    def test_farey_200_brute_force(self):
        fam = farey(200, (0, 1))
        (e,) = solve_2d(fam, 0.5).endpoint
        for q in range(1, 201):
            for p in range(0, q + 1):
                if math.gcd(p, q) == 1:
                    assert abs(e - p / q) >= 0.5 / (2 * q * q) - 1e-9

    def test_sides_give_distinct_endpoints(self):
        fam = farey(60, (0, 1))
        (a,) = solve_2d(fam, 0.4, direction=(-1,)).endpoint
        (b,) = solve_2d(fam, 0.4, direction=(1,)).endpoint
        assert abs(a - b) >= 0.4 * 0.5 - 1e-9

    def test_extremal_below_critical(self):
        fam = extremal(12)
        sol = solve_2d(fam, SHARP_SCALE - 1e-9)
        assert len(sol.witness) == 13  # seed plus one step per generation
        assert sol.endpoint[0] == pytest.approx(math.sqrt(2) / 2, abs=1e-6)

    def test_witness_invariants(self):
        fam = farey(100, (0, 1))
        sol = solve_2d(fam, 0.5)
        for a, b in zip(sol.witness, sol.witness[1:]):
            assert abs(b.center[0] - a.center[0]) + b.radius <= a.radius + 1e-12
            h = fam.horoballs[b.index]
            assert 2 * b.radius == pytest.approx(float(h.radius) * (1 - 0.5), abs=1e-12)
            assert abs(b.center[0] - h.base[0]) == pytest.approx(
                float(h.radius) * (1 + 0.5) / 2, abs=1e-12)
        assert sol.witness[0].index == sol.start_index

    def test_scale_above_sharp_rejected(self):
        fam = farey(10, (0, 1))
        with pytest.raises(ValueError):
            solve_2d(fam, SHARP_SCALE + 1e-6)

    def test_exact_scale_is_decided_exactly(self):
        # 4 sqrt(2) - 5 = 0.65685424949238..., and (s + 5)^2 <= 32 decides a
        # rational s: above lies within the float slack of SHARP_SCALE, and
        # Fraction(SHARP_SCALE), the float's exact value, lies above 4 sqrt(2) - 5
        fam = farey(5, (0, 1))
        above = Fraction(6568542494925, 10 ** 13)
        assert float(above) <= SHARP_SCALE * (1 + 1e-12)
        for s in (above, Fraction(SHARP_SCALE)):
            with pytest.raises(ValueError, match=re.escape("must lie in (0, 4*sqrt(2)-5]")):
                solve_2d(fam, s, tol=0)
        with pytest.raises(ValueError, match=re.escape(f"must lie in (0, {SHARP_SCALE}]")):
            solve_2d(farey(5), 0.66)
        s = Fraction(6568542494923, 10 ** 13)
        sol = solve_2d(fam, s, tol=0)
        assert sol.certificate.margin >= 0 and isinstance(sol.endpoint[0], Fraction)

    def test_exact_arithmetic_run(self):
        fam = farey(30, (0, 1))
        sol = solve_2d(fam, Fraction(1, 2), tol=0)
        (e,) = sol.endpoint
        assert isinstance(e, Fraction)
        for _, h in fam.tangent_items():
            assert abs(e - h.base[0]) >= h.radius / 2


PLANAR = {"farey+inf": farey(12, (0, 1), include_infinity=True),
          "farey-wide": farey(6, (-2, 3)),
          "extremal": extremal(6),
          "extremal-exact": extremal(5, Fraction(1, 3)),
          "random-2d": random_disjoint(80, 2, 3)}


class TestOneSolver:
    @settings(max_examples=120, deadline=None)
    @given(name=st.sampled_from(sorted(PLANAR)), k=st.integers(-60, 60),
           s=st.fractions(Fraction(1, 50), Fraction(31, 50), max_denominator=100),
           exact_s=st.booleans(), start=st.one_of(st.none(), st.integers(0, 200)),
           direction=st.sampled_from([(-1,), (1,)]))
    def test_solve_2d_is_solve_hnr_along_the_side(self, name, k, s, exact_s, start, direction):
        # field for field, in the arithmetic of the family and of s
        unit = PLANAR[name]
        fam = transform(unit, (Fraction(2) if unit.exact is not None else 2.0) ** k)
        s = s if exact_s else float(s)
        if start is not None:
            start %= len(fam.horoballs)

        def run(solver, *args):
            try:
                return solver(fam, s, start, *args)
            except (ValueError, CertificateError) as exc:
                return type(exc), str(exc)

        got = run(solve_2d, direction)
        assert got == run(solve_hnr, direction)
        if isinstance(got, tuple):
            return
        assert all(isinstance(c, type(got.endpoint[0])) for c in got.endpoint)
        if fam.exact is not None and exact_s:
            assert isinstance(got.endpoint[0], Fraction)
            assert isinstance(got.certificate.margin, Fraction)
            assert all(isinstance(v, Fraction) for K in got.witness for v in (*K.center, K.radius))

    def test_exact_tie_goes_away_from_the_parent(self):
        # farey(5)+inf at s = 3/5 from the right of the ball at 0: the chain
        # steps into the left component [3/8, 17/40] of the ball at 1/2,
        # whose center 2/5 is the base of the next member, so that
        # member's components tie; the step keeps the one beyond 2/5 as
        # seen from the parent's base 1/2 (the interval step of the old
        # planar solver went right, to 52/125)
        sol = solve_2d(farey(5, (0, 1), include_infinity=True), Fraction(3, 5), tol=0)
        assert sol.endpoint == (Fraction(48, 125),)


class TestBeyondTheSquareRange:
    @pytest.mark.parametrize("s,want", [
        (0.2, Fraction(-1787929052066087, 1125899906842624)), (Fraction(1, 5), Fraction(-397, 250))])
    def test_no_warning_and_the_same_endpoint(self, s, want):
        # the squared gaps of a family dilated by 2^600 overflow, and the
        # filter reads inf - inf as a member that may meet
        fam = transform(farey(6, (-2, 3)), Fraction(2) ** 600)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_2d(fam, s)
        assert Fraction(sol.endpoint[0]) == want * 2 ** 600
        assert (len(sol.witness), sol.certificate.index) == (3, 32)


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
        (e,) = solve_2d(fam, s).endpoint
        assert any(a - 1e-12 <= e <= b + 1e-12 for a, b in residual)


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

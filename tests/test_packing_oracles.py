"""Differential tests of the pruned packing code against the all-pairs
loops it replaced, which are kept here as oracles."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horoshadow.halfspace import AtInfinityHoroball, TangentHoroball, vnorm2, vsub
from horoshadow.numeric import DEFAULT_TOL
from horoshadow.packings import (
    HoroballFamily,
    extremal,
    farey,
    geometric,
    random_disjoint,
    validate_disjoint,
)


def brute_validate_disjoint(fam, tol=DEFAULT_TOL, exact=False):
    """All-pairs violation list: every pair of tangent horoballs goes
    through the quadratic certificate."""
    bad = []
    hs = fam.horoballs
    slack = 0 if exact else tol
    tangs = [(i, h) for i, h in enumerate(hs) if isinstance(h, TangentHoroball)]
    infs = [(i, h) for i, h in enumerate(hs) if isinstance(h, AtInfinityHoroball)]
    for k in range(len(infs)):
        for m in range(k + 1, len(infs)):
            bad.append((infs[k][0], infs[m][0]))
    for i, t in tangs:
        for j, inf in infs:
            if 2 * t.radius > inf.height * (1 + slack):
                bad.append(tuple(sorted((i, j))))
    if exact:
        for a in range(len(tangs)):
            ia, ha = tangs[a]
            for b in range(a + 1, len(tangs)):
                ib, hb = tangs[b]
                lhs = vnorm2(vsub(ha.base, hb.base))
                if lhs < 4 * ha.radius * hb.radius:
                    bad.append((ia, ib))
    elif tangs:
        import numpy as np
        idx = np.array([i for i, _ in tangs])
        xs = np.array([[float(c) for c in h.base] for _, h in tangs])
        rs = np.array([float(h.radius) for _, h in tangs])
        n = len(tangs)
        block = max(1, min(n, 8_000_000 // max(n, 1)))
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            diff = xs[lo:hi, None, :] - xs[None, :, :]
            lhs = np.einsum("ijk,ijk->ij", diff, diff)
            rhs = 4 * rs[lo:hi, None] * rs[None, :] * (1 - slack)
            rows, cols = np.nonzero(lhs < rhs)
            for r, c in zip(rows, cols):
                if lo + r < c:
                    bad.append((int(idx[lo + r]), int(idx[c])))
    bad.sort()
    return bad


def brute_random_disjoint(count, dim, seed, side):
    """Rejection sampling that tests each new ball against every placed one."""
    rng = random.Random(seed)
    placed = []
    attempts = 0
    while len(placed) < count:
        attempts += 1
        if attempts > 400 * count:
            raise RuntimeError("could not place")
        base = tuple(rng.uniform(0.0, side) for _ in range(dim - 1))
        radius = rng.uniform(0.05, 0.5)
        ok = True
        for other in placed:
            if vnorm2(vsub(base, other.base)) < 4 * radius * other.radius:
                ok = False
                break
        if ok:
            placed.append(TangentHoroball(base, radius))
    return placed


def ford_spheres(norm_max, reduced=True):
    """Horoballs in H^3 tangent at Gaussian fractions p/q in the unit
    square, radius 1/(2|q|^2), for |q|^2 <= norm_max.  Reduced: one ball
    per point, the one of least |q|^2 (the disjoint Ford spheres);
    otherwise every representative, so equal points overlap."""
    best = {}
    balls = []
    for a in range(-3, 4):
        for b in range(-3, 4):
            n = a * a + b * b
            if not 0 < n <= norm_max:
                continue
            bound = 2 * math.isqrt(n) + 2
            for c in range(-bound, bound + 1):
                for d in range(-bound, bound + 1):
                    # (c + di) / (a + bi) = (c + di)(a - bi) / n
                    z = (Fraction(c * a + d * b, n), Fraction(d * a - c * b, n))
                    if not all(0 <= t <= 1 for t in z):
                        continue
                    ball = TangentHoroball(z, Fraction(1, 2 * n))
                    balls.append(ball)
                    if z not in best or n < best[z][0]:
                        best[z] = (n, ball)
    if reduced:
        balls = [ball for _, ball in sorted(best.values(), key=lambda v: v[1].base)]
    return HoroballFamily(3, balls)


def assert_matches_oracle(fam):
    for kw in ({"exact": True}, {}, {"tol": 0.0}, {"tol": -1e-9}, {"tol": 0.5}):
        got = validate_disjoint(fam, **kw)
        want = brute_validate_disjoint(fam, **kw)
        assert got.violations == want, kw
        assert got.ok == (not want)


def transform(fam, scale=1, shift=0):
    return HoroballFamily(fam.dim, [
        TangentHoroball(tuple(scale * (c + shift) for c in h.base), scale * h.radius)
        if isinstance(h, TangentHoroball) else AtInfinityHoroball(scale * h.height)
        for h in fam.horoballs])


rationals = st.fractions(min_value=0, max_value=6, max_denominator=40)
radii = st.fractions(min_value=Fraction(1, 200), max_value=2, max_denominator=200)


@st.composite
def families(draw):
    """Random rational families in H^2 and H^3, with exactly tangent Farey
    neighbours and equal-radius pairs that overlap, touch or miss by a tiny
    amount mixed in."""
    dim = draw(st.sampled_from([2, 3]))
    k = dim - 1
    balls = [TangentHoroball(tuple(draw(rationals) for _ in range(k)), draw(radii))
             for _ in range(draw(st.integers(0, 25)))]
    for _ in range(draw(st.integers(0, 4))):
        # p/q and its Farey neighbour p'/q' with p'q - pq' = 1 are tangent
        q, q2 = draw(st.integers(1, 30)), draw(st.integers(1, 30))
        if math.gcd(q, q2) != 1:
            continue
        p = pow(-q2, -1, q) if q > 1 else 0
        p2 = (1 + p * q2) // q
        rest = tuple(draw(rationals) for _ in range(k - 1))
        for num, den in ((p, q), (p2, q2)):
            balls.append(TangentHoroball((Fraction(num, den),) + rest,
                                         Fraction(1, 2 * den * den)))
    for _ in range(draw(st.integers(0, 3))):
        r = draw(radii)
        eps = r * Fraction(draw(st.integers(-3, 3)), 10 ** draw(st.integers(10, 40)))
        x = draw(rationals)
        rest = tuple(draw(rationals) for _ in range(k - 1))
        balls.append(TangentHoroball((x,) + rest, r))
        balls.append(TangentHoroball((x + 2 * r - eps,) + rest, r))
    draw(st.randoms()).shuffle(balls)
    if draw(st.booleans()):
        balls.insert(draw(st.integers(0, len(balls))), AtInfinityHoroball(1))
    return HoroballFamily(dim, balls)


class TestValidateDisjointOracle:
    @settings(max_examples=100, deadline=None)
    @given(families())
    def test_random_families(self, fam):
        assert_matches_oracle(fam)

    @pytest.mark.parametrize("fam", [
        farey(27),
        farey(12, (-1, 2), include_infinity=True),
        geometric(-6, 6),
        extremal(6),
        extremal(6, 0.5),
        extremal(5, Fraction(1, 2)),
        extremal(5, Fraction(3, 5)),
        ford_spheres(8),
        ford_spheres(5, reduced=False),
    ], ids=["farey", "farey-inf", "geometric", "extremal", "extremal-half",
            "extremal-exact-half", "extremal-exact-below", "ford", "ford-unreduced"])
    def test_named_families(self, fam):
        assert_matches_oracle(fam)

    def test_overlapping_families_report_many_pairs(self):
        assert len(brute_validate_disjoint(extremal(6, 0.5))) > 100
        assert len(brute_validate_disjoint(ford_spheres(5, reduced=False))) > 10


class TestIsometryInvariance:
    """The exact verdict is a property of the geometry, so it may not move
    under translations and dilations, including beyond the float range."""

    # 2^1021 and 2^-1070 put some coordinates beyond the float range and
    # among the subnormals, 2^+-1100 put all of them there
    scales = [Fraction(10) ** 12, Fraction(1, 10 ** 12),
              Fraction(2) ** 1100, Fraction(1, 2 ** 1100),
              Fraction(2) ** 1021, Fraction(1, 2 ** 1070)]

    @settings(max_examples=60, deadline=None)
    @given(families(), st.sampled_from(scales), rationals)
    def test_random_families(self, fam, scale, shift):
        want = brute_validate_disjoint(fam, exact=True)
        assert validate_disjoint(transform(fam, scale, shift), exact=True).violations == want
        assert validate_disjoint(transform(fam, 1, shift), exact=True).violations == want

    @pytest.mark.parametrize("scale", scales)
    def test_named_families(self, scale):
        for fam in (farey(8), extremal(4, Fraction(1, 2)), ford_spheres(4)):
            want = brute_validate_disjoint(fam, exact=True)
            assert validate_disjoint(transform(fam, scale, Fraction(-7, 3)),
                                     exact=True).violations == want


class TestRandomDisjointOracle:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("count,seeds", [(1, (0, 1)), (37, (0, 3, 9)), (600, (0, 5))])
    def test_identical_families(self, dim, count, seeds):
        side = max(4.0, 2.0 * math.sqrt(count) ** (2 / (dim - 1)))
        for seed in seeds:
            fam = random_disjoint(count, dim, seed)
            assert fam.horoballs == brute_random_disjoint(count, dim, seed, side)

    def test_dim3_side_unchanged(self):
        for count in (5, 480, 600):
            side = max(4.0, 2.0 * math.sqrt(count))
            assert random_disjoint(count, 3, 2).horoballs == \
                brute_random_disjoint(count, 3, 2, side)

"""Differential tests of the pruned packing code against the all-pairs
loops it replaced, which are kept here as oracles."""

import cmath
import dataclasses
import math
import random
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horoshadow import packings
from horoshadow.halfspace import (
    ArcGeodesic,
    AtInfinityHoroball,
    Point,
    TangentHoroball,
    VerticalGeodesic,
    vnorm2,
    vsub,
)
from horoshadow.heisenberg import (
    IDENTITY,
    HeisPoint,
    cc_dist,
    cc_point_toward,
    cygan_dist,
    dilate,
    heis_mul,
    heisenberg_space,
)
from horoshadow.numeric import DEFAULT_TOL, may_be_le, sweep_pairs, to_float
from horoshadow.packings import (
    HoroballFamily,
    extremal,
    farey,
    geometric,
    random_disjoint,
    validate_disjoint,
)
from horoshadow.uncover import BallFamily, euclidean_space


def brute_validate_disjoint(fam, tol=DEFAULT_TOL, exact=False):
    """All-pairs violation list: every pair of tangent horoballs goes
    through the quadratic certificate; with exact=True over the exact
    values, float ones read as Fraction(c)."""
    bad = []
    hs = fam.horoballs
    slack = 0 if exact else tol
    value = Fraction if exact else (lambda c: c)
    tangs = [(i, h) for i, h in enumerate(hs) if isinstance(h, TangentHoroball)]
    infs = [(i, h) for i, h in enumerate(hs) if isinstance(h, AtInfinityHoroball)]
    for k in range(len(infs)):
        for m in range(k + 1, len(infs)):
            bad.append((infs[k][0], infs[m][0]))
    for i, t in tangs:
        for j, inf in infs:
            if 2 * value(t.radius) > inf.height * (1 + slack):
                bad.append(tuple(sorted((i, j))))
    if exact:
        for a in range(len(tangs)):
            ia, ha = tangs[a]
            for b in range(a + 1, len(tangs)):
                ib, hb = tangs[b]
                lhs = vnorm2(vsub(tuple(map(value, ha.base)), tuple(map(value, hb.base))))
                if lhs < 4 * value(ha.radius) * value(hb.radius):
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


def old_validate_disjoint_exact(fam):
    """The exact branch validate_disjoint ran before its float filter and
    integer pass: the members at infinity against each tangent member
    the float filter leaves, and the quadratic certificate in Fractions on
    every candidate pair of the sweep; a float family's values are read
    as Fraction(c)."""
    import numpy as np
    hs, cols = fam.horoballs, fam.columns
    infs, tangs = cols.infinity.tolist(), cols.tangent.tolist()
    bad = [(i, j) for k, i in enumerate(infs) for j in infs[k + 1:]]
    xs, rs = cols.base, cols.radius
    for j in infs:
        cap = to_float(hs[j].height)
        for k in np.flatnonzero(may_be_le(cap, 2 * rs, abs(cap) + 2 * rs)).tolist():
            if 2 * Fraction(hs[tangs[k]].radius) > hs[j].height:
                bad.append(tuple(sorted((tangs[k], j))))
    a, b = sweep_pairs(xs[:, 0], rs)
    rows = np.flatnonzero(np.bincount(np.concatenate([a, b]), minlength=len(rs)))
    base = [tuple(map(Fraction, x)) for x in fam.bases(rows)]
    radius = list(map(Fraction, fam.radii(rows)))
    for p, q, i, j in zip(rows.searchsorted(a).tolist(), rows.searchsorted(b).tolist(),
                          cols.tangent[a].tolist(), cols.tangent[b].tolist()):
        if vnorm2(vsub(base[p], base[q])) < 4 * radius[p] * radius[q]:
            bad.append((i, j))
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
    assert validate_disjoint(fam, exact=True).violations == old_validate_disjoint_exact(fam)


def similar(x, scale=1, shift=0):
    """x (a point, a horoball or a geodesic) translated by shift (a
    number, or a tuple with one per base coordinate) and then dilated by
    scale about 0: exact for Fraction values, and for float ones where
    the sums and the products are (a power-of-two scale, a dyadic
    shift).  A zero shift leaves a coordinate as it is, -0.0 included."""
    def move(v):
        d = shift if isinstance(shift, tuple) else (shift,) * len(v)
        return tuple(scale * (c + e) if e else scale * c for c, e in zip(v, d))
    if isinstance(x, Point):
        return Point(move(x.base), scale * x.height)
    if isinstance(x, TangentHoroball):
        return TangentHoroball(move(x.base), scale * x.radius)
    if isinstance(x, AtInfinityHoroball):
        return AtInfinityHoroball(scale * x.height)
    if isinstance(x, VerticalGeodesic):
        return VerticalGeodesic(move(x.foot), x.param_range)
    return ArcGeodesic(move(x.a), move(x.b), x.param_range)


def transform(fam, scale=1, shift=0):
    """fam with each member moved by similar, with its labels."""
    return HoroballFamily(fam.dim, [similar(h, scale, shift) for h in fam.horoballs], fam.labels)


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


def old_farey(q_max, p_range=(0, 1), include_infinity=False):
    """The gcd loop farey ran before it built integer columns."""
    if q_max < 1:
        raise ValueError("q_max must be at least 1")
    lo, hi = Fraction(p_range[0]), Fraction(p_range[1])
    if lo > hi:
        raise ValueError("empty fraction range")
    balls = []
    labels = []
    for q in range(1, q_max + 1):
        p_lo = math.ceil(lo * q)
        p_hi = math.floor(hi * q)
        for p in range(p_lo, p_hi + 1):
            if math.gcd(p, q) != 1:
                continue
            balls.append(TangentHoroball((Fraction(p, q),), Fraction(1, 2 * q * q)))
            labels.append(f"{p}/{q}")
    if include_infinity:
        balls.append(AtInfinityHoroball(1))
        labels.append("inf")
    if not balls:
        raise ValueError("no fractions in range")
    return HoroballFamily(2, balls, labels)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "raised", str(exc)


class TestFareyOracle:
    @pytest.mark.parametrize("p_range", [(0, 1), (-3, 4), (Fraction(1, 3), Fraction(2, 5)),
                                         (Fraction(5, 2), Fraction(5, 2))],
                             ids=["0..1", "-3..4", "1/3..2/5", "5/2..5/2"])
    def test_members_labels_and_order(self, p_range):
        # the oracle's loop runs over q independently of q_max, so its
        # family for q_max is the prefix of its family for 120 with q <= q_max
        want = old_farey(120, p_range)
        qs = [h.radius.denominator for h in want.horoballs]  # 2 q^2
        for q_max in range(1, 121):
            include = q_max % 2 == 0
            n = bisect_right(qs, 2 * q_max * q_max)
            if n == 0 and not include:
                assert outcome(farey, q_max, p_range) == outcome(old_farey, q_max, p_range) \
                    == ("raised", "no fractions in range")
                continue
            got = farey(q_max, p_range, include)
            tail = ["inf"] if include else []
            assert got.labels == want.labels[:n] + tail
            ex = got.exact
            if not n:  # a family with no tangent rows has no exact columns
                assert ex is None
            else:
                assert ex.base_num[:, 0].tolist() == \
                    [h.base[0].numerator for h in want.horoballs[:n]]
                assert ex.base_den[:, 0].tolist() == \
                    [h.base[0].denominator for h in want.horoballs[:n]]
                assert ex.radius_den.tolist() == qs[:n] and set(ex.radius_num.tolist()) <= {1}
            if q_max in (1, 2, 3, 7, 60, 119, 120):
                assert got.horoballs == old_farey(q_max, p_range, include).horoballs
                assert all(type(c) is Fraction for h in got.horoballs[:n]
                           for c in h.base + (h.radius,))

    @pytest.mark.parametrize("args", [(5, (1, 0)), (5, (Fraction(1, 3), Fraction(1, 4))),
                                      (3, (Fraction(1, 7), Fraction(1, 6))),
                                      (1, (Fraction(1, 3), Fraction(2, 3))),
                                      (0, (0, 1)), (-2, (0, 1))])
    def test_errors(self, args):
        for include in (False, True):
            assert outcome(farey, *args, include) == outcome(old_farey, *args, include)

    def test_with_infinity_and_far_ranges(self):
        for p_range in [(10 ** 20, 10 ** 20 + 1), (Fraction(-10 ** 30, 7), Fraction(-10 ** 30 + 5, 7)),
                        (-2, Fraction(-3, 2))]:
            got, want = farey(9, p_range, True), old_farey(9, p_range, True)
            assert (got.labels, got.horoballs) == (want.labels, want.horoballs)
            assert got.horoballs[-1] == AtInfinityHoroball(1)
            assert type(got.horoballs[-1].height) is int


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
        for moved in (transform(fam, scale, shift), transform(fam, 1, shift)):
            assert validate_disjoint(moved, exact=True).violations == want
            assert old_validate_disjoint_exact(moved) == want

    @pytest.mark.parametrize("scale", scales)
    def test_named_families(self, scale):
        for fam in (farey(8), extremal(4, Fraction(1, 2)), ford_spheres(4),
                    farey(12, (-1, 2), include_infinity=True), extremal(5, Fraction(3, 5)),
                    ford_spheres(5, reduced=False)):
            want = brute_validate_disjoint(fam, exact=True)
            moved = transform(fam, scale, Fraction(-7, 3))
            assert validate_disjoint(moved, exact=True).violations == want
            assert old_validate_disjoint_exact(moved) == want


    @pytest.mark.parametrize("scale", [Fraction(2) ** 1100, Fraction(1, 2 ** 1100)],
                             ids=["2^1100", "2^-1100"])
    def test_sweep_beyond_the_float_range(self, monkeypatch, scale):
        """The sweep of the exact check reads the exact values scaled back
        by one power of two, so a dilation beyond the float range keeps
        the candidate pairs of scale 1 (it took all 120,295 pairs of
        farey(40), whose floats are all 0 or inf there); the verdicts on
        such dilations are checked against both oracles above."""
        counts = []
        sweep = packings.sweep_pairs

        def counted(key, half):
            a, b = sweep(key, half)
            counts.append(len(a))
            return a, b
        monkeypatch.setattr(packings, "sweep_pairs", counted)
        for fam, shift in ((farey(40), 0), (farey(12, (-1, 2), include_infinity=True), -7)):
            want = validate_disjoint(transform(fam, 1, shift), exact=True).violations
            assert validate_disjoint(transform(fam, scale, shift), exact=True).violations == want
            assert counts[-1] == counts[-2]
        assert counts[0] == 1627

    def test_no_single_shift(self):
        # values at 2^1100 and 2^-1100 at once: the sweep falls back to
        # the float columns
        fam = HoroballFamily(2, [
            TangentHoroball((Fraction(0),), Fraction(1, 2 ** 1100)),
            TangentHoroball((Fraction(2 ** 1101),), Fraction(2 ** 1100)),
            TangentHoroball((Fraction(2 ** 1101 + 1),), Fraction(2 ** 1100)),
            TangentHoroball((Fraction(3, 2 ** 1100),), Fraction(1, 2 ** 1100))])
        want = brute_validate_disjoint(fam, exact=True)
        assert want == [(1, 2)]
        assert validate_disjoint(fam, exact=True).violations == want == \
            old_validate_disjoint_exact(fam)


def neighbours(q, q2, shift=0):
    """Farey neighbours p/q and p2/q2 (|p q2 - p2 q| = 1), moved by shift:
    the horoballs of radii 1/(2 q^2) and 1/(2 q2^2) there are tangent."""
    p = pow(-q2, -1, q) if q > 1 else 0
    return Fraction(p, q) + shift, Fraction((1 + p * q2) // q, q2) + shift


def nudged_pair(q, q2, shift, nudge, nudge2, rest=()):
    """Two Farey neighbours whose radius denominators 2 q^2 are moved by
    nudge and nudge2: tangent at (0, 0), overlapping where the product of
    the denominators falls below 4 q^2 q2^2, apart where it rises above."""
    x, x2 = neighbours(q, q2, shift)
    return [TangentHoroball((x,) + rest, Fraction(1, 2 * q * q + nudge)),
            TangentHoroball((x2,) + rest, Fraction(1, 2 * q2 * q2 + nudge2))]


class TestExactValidation:
    """The float filter and the integer pass behind it against the
    Fraction loops."""

    def test_float_pair_that_overlaps_over_the_rationals(self):
        # the float test passes it with zero slack; over Fraction(float)
        # 4 r r' exceeds |b - b'|^2
        fam = HoroballFamily(2, [TangentHoroball((-2.6068268445611213,), 0.643528034736575),
                                 TangentHoroball((-1.300297847085225,), 0.6631482736972486)])
        assert fam.exact is None
        assert validate_disjoint(fam, tol=0.0).ok
        assert brute_validate_disjoint(fam, exact=True) == old_validate_disjoint_exact(fam) \
            == [(0, 1)]
        assert validate_disjoint(fam, exact=True).violations == [(0, 1)]

    def test_int64_and_object_paths_agree(self, monkeypatch):
        # a tangency with q q2 = 2^30 - 2^20 - 2^15 has the integer bound
        # 4 q^2 q2^2 below 2^62 and one with 2^30 + 2^20 + 2^15 above it;
        # the int64 positions are run again on Python ints
        runs = []
        int_decide = packings._int_decide

        def both(bound, decide):
            got = int_decide(bound, decide)
            small = np.flatnonzero(bound < 2.0 ** 62)
            runs.append((len(small), len(bound) - len(small)))
            assert decide(small, object).tolist() == got[small].tolist()
            return got
        monkeypatch.setattr(packings, "_int_decide", both)
        balls = []
        for k, q in enumerate((2 ** 15 - 2 ** 5 - 1, 2 ** 15 + 2 ** 5 + 1)):
            for m, nudge in enumerate((0, -1, 1)):
                balls += nudged_pair(q, 2 ** 15, 10 * (3 * k + m), nudge, 0)
        fam = HoroballFamily(2, balls)
        got = validate_disjoint(fam, exact=True).violations
        assert got == old_validate_disjoint_exact(fam) == brute_validate_disjoint(fam, exact=True)
        assert len(got) == 2
        assert runs and all(small and wide for small, wide in runs)

    @pytest.mark.parametrize("k", [20, 31, 32, 33, 52])
    def test_small_scales_without_a_shift(self, k):
        # at 2^-k the denominators grow past 2^31 while the numerators
        # stay small, so the squared denominators alone leave int64
        fams = [farey(8), farey(12, (-1, 2), include_infinity=True), ford_spheres(4)]
        fams += [HoroballFamily(2, nudged_pair(3, 2, 0, nudge, 0)) for nudge in (-1, 0, 1)]
        fams += [HoroballFamily(2, nudged_pair(987, 610, 0, nudge, 0)) for nudge in (-1, 0, 1)]
        for fam in fams:
            want = brute_validate_disjoint(fam, exact=True)
            moved = transform(fam, Fraction(1, 2 ** k))
            assert validate_disjoint(moved, exact=True).violations == want
            assert old_validate_disjoint_exact(moved) == want

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10 ** 5), st.integers(1, 10 ** 5), st.integers(-10 ** 4, 10 ** 4),
           st.integers(-1, 1), st.integers(-1, 1), st.sampled_from([1, 2]),
           st.sampled_from([0, -20, -32, 600, -600, 1100, -1100]))
    def test_nudged_farey_neighbours(self, q, q2, shift, nudge, nudge2, width, k):
        if math.gcd(q, q2) != 1 or 2 * min(q, q2) ** 2 + min(nudge, nudge2) <= 0:
            return
        rest = (Fraction(shift, 7),) * (width - 1)
        fam = transform(HoroballFamily(width + 1, nudged_pair(q, q2, shift, nudge, nudge2, rest)),
                        Fraction(2) ** k)
        x, x2 = (h.base for h in fam.horoballs)
        r, r2 = (h.radius for h in fam.horoballs)
        want = [(0, 1)] if vnorm2(vsub(x, x2)) < 4 * r * r2 else []
        assert want == ([(0, 1)] if (2 * q * q + nudge) * (2 * q2 * q2 + nudge2)
                        < 4 * q * q * q2 * q2 else [])
        assert validate_disjoint(fam, exact=True).violations == want
        assert old_validate_disjoint_exact(fam) == want

    @pytest.mark.parametrize("nudge,want", [(-1, [(0, 1)]), (0, []), (1, [])])
    def test_the_floats_leave_the_nudged_pairs(self, monkeypatch, nudge, want):
        calls = []
        apart = packings._apart
        monkeypatch.setattr(packings, "_apart", lambda fam, a, b: calls.append(len(a)) or
                            apart(fam, a, b))
        fam = HoroballFamily(2, nudged_pair(987, 610, 3, nudge, 0))
        assert validate_disjoint(fam, exact=True).violations == want
        assert calls == [1]


class TestRandomDisjointOracle:
    # dim 5 sums four squared base differences, where a reordered sum
    # could flip a borderline rejection
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
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

    def test_several_blocks(self, monkeypatch):
        sweeps = []
        monkeypatch.setattr(packings, "sweep_pairs",
                            lambda *args: sweeps.append(1) or sweep_pairs(*args))
        side = 2.0 * math.sqrt(2000) ** 2
        assert random_disjoint(2000, 2, 1).horoballs == \
            brute_random_disjoint(2000, 2, 1, side)
        assert len(sweeps) > 1


def brute_validate_packing(fam, tol=DEFAULT_TOL):
    """The all-pairs loop BallFamily.validate_packing ran before the sweep."""
    bad = []
    for i in range(len(fam.balls)):
        xi, ri = fam.balls[i]
        for j in range(i + 1, len(fam.balls)):
            xj, rj = fam.balls[j]
            d = fam.space.dist(xi, xj)
            if ri * rj > fam.D * d * d * (1 + tol):
                bad.append((i, j))
    return bad


PACKING_TOLS = [0.0, 1e-9, -1e-9, 0.5, -0.5]


def outcome(f, *args):
    try:
        return "ok", f(*args)
    except ValueError as e:
        return "raised", str(e)


def assert_packing_matches_oracle(fam, tols=PACKING_TOLS):
    for tol in tols:
        want = outcome(brute_validate_packing, fam, tol)
        # cc_dist raises "target not bracketed" on displacements with
        # |dzeta| / sqrt|dv| between about 1e-14 and 3e-10; the sweep asks
        # for fewer distances, so it may never ask for that one
        assert outcome(fam.validate_packing, tol) == want or want[0] == "raised", tol


#: ratios r r' / (D d^2) of the pairs placed at the packing threshold
AT_THRESHOLD = st.sampled_from([1.0, 1 - 1e-9, 1 + 1e-9, 1 - 1e-12, 0.9, 1.1])
angles = st.floats(0, 2 * math.pi)


@st.composite
def euclidean_ball_families(draw):
    """Random balls in R^1..3 plus pairs at r r' = k D d^2 for k near 1,
    and a chain of such pairs on a line through the first center, where
    the distance to that center is exactly the pair distance."""
    dim = draw(st.integers(1, 3))
    D = draw(st.sampled_from([0.1, 0.25, 0.5]))
    coord = st.floats(-8, 8)
    point = st.tuples(*[coord] * dim)
    balls = [(draw(point), draw(st.floats(0.01, 2))) for _ in range(draw(st.integers(0, 30)))]
    for _ in range(draw(st.integers(0, 4))):
        x, d, axis = draw(point), draw(st.floats(0.05, 3)), draw(st.integers(0, dim - 1))
        y = tuple(c + d if k == axis else c for k, c in enumerate(x))
        r = math.sqrt(draw(AT_THRESHOLD) * D) * math.dist(x, y)
        balls += [(x, r), (y, r)]
    draw(st.randoms()).shuffle(balls)
    if balls and draw(st.booleans()):
        x0, d = balls[0][0], draw(st.floats(0.05, 3))
        r = math.sqrt(draw(AT_THRESHOLD) * D) * d
        balls += [((x0[0] + k * d,) + x0[1:], r) for k in range(1, 4)]
    return BallFamily(euclidean_space(dim), balls, D)


def heis_point(draw):
    return HeisPoint(complex(draw(st.floats(-3, 3)), draw(st.floats(-3, 3))),
                     draw(st.floats(-9, 9)))


@st.composite
def heisenberg_ball_families(draw):
    """Random Heisenberg balls plus pairs at r r' = k D d_CC^2 for k near
    1: near-vertical pairs (|dzeta| / sqrt|dv| from 1e-8 to 1e-3), where
    d_CC is least accurate, and horizontal ones; then a horizontal chain
    through the first center."""
    D = draw(st.sampled_from([0.1, 0.25]))
    balls = [(heis_point(draw), draw(st.floats(0.01, 1.5)))
             for _ in range(draw(st.integers(0, 25)))]
    for _ in range(draw(st.integers(0, 4))):
        x = heis_point(draw)
        v = draw(st.floats(0.01, 4)) * draw(st.sampled_from([-1, 1]))
        ratio = 10 ** draw(st.floats(-8, -3))
        y = heis_mul(x, HeisPoint(ratio * math.sqrt(abs(v)) * cmath.exp(1j * draw(angles)), v))
        r = math.sqrt(draw(AT_THRESHOLD) * D) * cc_dist(x, y)
        balls += [(x, r), (y, r)]
    for _ in range(draw(st.integers(0, 3))):
        x = heis_point(draw)
        y = heis_mul(x, HeisPoint(draw(st.floats(0.05, 3)) * cmath.exp(1j * draw(angles)), 0))
        r = math.sqrt(draw(AT_THRESHOLD) * D) * cc_dist(x, y)
        balls += [(x, r), (y, r)]
    draw(st.randoms()).shuffle(balls)
    if balls and draw(st.booleans()):
        # horizontal lines are CC geodesics
        step = HeisPoint(draw(st.floats(0.05, 3)) * cmath.exp(1j * draw(angles)), 0)
        r = math.sqrt(draw(AT_THRESHOLD) * D) * cc_dist(balls[0][0], heis_mul(balls[0][0], step))
        x = balls[0][0]
        for _ in range(3):
            x = heis_mul(x, step)
            balls.append((x, r))
    return BallFamily(heisenberg_space(), balls, D)


def seeded_heisenberg_balls(count, seed):
    """Balls with r r' <= d_Cyg^2 / 4 <= d_CC^2 / 4, by rejection sampling
    in a box whose Haar volume grows like count."""
    rng = random.Random(seed)
    side = 1.2 * count ** 0.25
    balls = []
    while len(balls) < count:
        x = HeisPoint(complex(rng.uniform(0, side), rng.uniform(0, side)),
                      rng.uniform(-side * side, side * side))
        r = rng.uniform(0.05, 0.5)
        if all(r * r2 <= cygan_dist(x, x2) ** 2 / 4 for x2, r2 in balls):
            balls.append((x, r))
    return balls


def dyadic(bits, bound):
    return st.integers(-bound * 2 ** bits, bound * 2 ** bits).map(lambda n: n / 2 ** bits)


@st.composite
def dyadic_heisenberg_families(draw):
    """Centers on a dyadic grid coarse enough that products, translations
    and the displacements d_CC reads stay exact in floats."""
    point = st.builds(lambda x, y, v: HeisPoint(complex(x, y), v),
                      dyadic(20, 4), dyadic(20, 4), dyadic(40, 16))
    balls = [(draw(point), draw(st.floats(0.01, 1.5))) for _ in range(draw(st.integers(0, 20)))]
    for _ in range(draw(st.integers(0, 3))):
        x, g = draw(point), HeisPoint(draw(dyadic(20, 1)), draw(dyadic(40, 4)))
        y = heis_mul(x, g)
        if x != y:
            balls += [(x, r := 0.5 * cc_dist(x, y)), (y, r)]
    return BallFamily(heisenberg_space(), balls, draw(st.sampled_from([0.1, 0.25])))


class TestValidatePackingOracle:
    @settings(max_examples=80, deadline=None)
    @given(euclidean_ball_families())
    def test_euclidean_families(self, fam):
        assert_packing_matches_oracle(fam)

    @settings(max_examples=60, deadline=None)
    @given(heisenberg_ball_families())
    def test_heisenberg_families(self, fam):
        assert_packing_matches_oracle(fam)

    @pytest.mark.parametrize("space", [euclidean_space(2), heisenberg_space()])
    def test_empty_and_one_ball(self, space):
        center = (0.0, 0.0) if space.has_lines else HeisPoint(0, 0)
        for balls in ([], [(center, 1.0)]):
            fam = BallFamily(space, balls, 0.25)
            assert_packing_matches_oracle(fam, PACKING_TOLS + [-1.0, -2.0])
            assert fam.validate_packing() == []

    def test_every_pair_is_a_candidate_below_minus_one(self):
        balls = [((float(k),), 1e-3) for k in range(6)]
        fam = BallFamily(euclidean_space(1), balls, 0.25)
        assert fam.validate_packing(-1.0) == brute_validate_packing(fam, -1.0) == \
            [(i, j) for i in range(6) for j in range(i + 1, 6)]
        assert fam.validate_packing(-0.5) == []

    def test_collinear_pairs_at_the_threshold(self):
        # d(x_0, x_j) - d(x_0, x_i) = d(x_i, x_j) and r r' = D d^2 exactly
        balls = [((0.0,), 1.0), ((5.0,), 1.0), ((7.0,), 1.0), ((9.0,), 1.0)]
        fam = BallFamily(euclidean_space(1), balls, 0.25)
        assert fam.validate_packing(0.0) == []
        assert fam.validate_packing(-1e-12) == [(1, 2), (2, 3)]
        assert_packing_matches_oracle(fam, PACKING_TOLS + [-1e-12])

    @pytest.mark.parametrize("ratio", [1e-8, 3e-9, 1e-7, 1e-6])
    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9, 0.999])
    def test_on_a_near_vertical_geodesic_from_the_first_center(self, ratio, frac):
        # cc_dist errs by up to ~1e-5 relative here, so the distances to
        # the first center can differ by more than the pair distance, and
        # by more than a margin relative to the radii alone (frac 0.999);
        # the pair is at the threshold and violates at tol < 0
        y = HeisPoint(ratio, 1.0)
        x = cc_point_toward(IDENTITY, y, frac * cc_dist(IDENTITY, y))
        r = 0.5 * cc_dist(x, y)
        fam = BallFamily(heisenberg_space(), [(IDENTITY, 1e-3), (x, r), (y, r)], 0.25)
        assert fam.validate_packing(-1e-9) == [(1, 2)]
        assert_packing_matches_oracle(fam)

    def test_margin_covers_dist_errors_far_from_the_first_center(self):
        # a dist off by 5e-5 relative, as cc_dist may be, stretches the
        # distance from the first center to one ball of a threshold pair
        # by more than a margin on the radii alone would cover
        def dist(p, q):
            return abs(p[0] - q[0]) * (1 + 5e-5 * (p[0] == 0 and q[0] == 101))

        space = dataclasses.replace(euclidean_space(1), dist=dist)
        balls = [((0.0,), 1e-3), ((100.0,), 0.5), ((101.0,), 0.5)]
        fam = BallFamily(space, balls, 0.25)
        assert dist((0.0,), (101.0,)) - dist((0.0,), (100.0,)) > 1 + 5e-3
        assert fam.validate_packing(-1e-9) == brute_validate_packing(fam, -1e-9) == [(1, 2)]

    @pytest.mark.parametrize("grow", [1.0, 2.0])
    def test_seeded_200_ball_heisenberg_family(self, grow):
        balls = [(x, grow * r) for x, r in seeded_heisenberg_balls(200, 200)]
        fam = BallFamily(heisenberg_space(), balls, 0.25)
        want = brute_validate_packing(fam)
        assert (want == []) == (grow == 1.0)
        assert_packing_matches_oracle(fam)


class TestValidatePackingInvariance:
    """Left translations and dilations by powers of two are exact on the
    dyadic grid, so the violation list may not move at all."""

    @settings(max_examples=60, deadline=None)
    @given(dyadic_heisenberg_families(),
           st.builds(lambda x, y, v: HeisPoint(complex(x, y), v),
                     dyadic(20, 4), dyadic(20, 4), dyadic(40, 16)),
           st.integers(-30, 30), st.sampled_from([0.0, -1e-9, 0.5]))
    def test_translation_and_dilation(self, fam, g, k, tol):
        want = fam.validate_packing(tol)
        assert want == brute_validate_packing(fam, tol)
        moved = BallFamily(fam.space, [(heis_mul(g, x), r) for x, r in fam.balls], fam.D)
        assert moved.validate_packing(tol) == want
        t = 2.0 ** k
        scaled = BallFamily(fam.space, [(dilate(x, t), t * r) for x, r in fam.balls], fam.D)
        assert scaled.validate_packing(tol) == want

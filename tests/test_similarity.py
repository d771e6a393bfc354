"""The similarity action on family columns (Ratios.similar), and the
invariance of the verdicts under the similarities of the boundary that
fix infinity (translations and dilations) and under inversion at a
rational boundary point: all are isometries of the model, so disjointness
verdicts, penetration depths and avoidance verdicts may not move."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horoshadow import packings, rays
from horoshadow.halfspace import (
    INF,
    ArcGeodesic,
    AtInfinityHoroball,
    TangentHoroball,
    VerticalGeodesic,
    penetrations,
)
from horoshadow.numeric import unit_exponent
from horoshadow.packings import HoroballFamily, farey, validate_disjoint
from horoshadow.rays import verify_avoidance
from test_filter_oracles import old_inverted
from test_packing_oracles import brute_validate_disjoint, old_validate_disjoint_exact, transform

#: dyadic floats on the grid 2^-10 within 2^4: sums, differences and
#: squares of them, and their products with powers of two, are exact
dyadic = st.integers(-2 ** 14, 2 ** 14).map(lambda n: n / 2 ** 10)
dyadic_radius = st.integers(1, 2 ** 11).map(lambda n: n / 2 ** 10)
rational = st.fractions(min_value=-6, max_value=6, max_denominator=40)
rational_radius = st.fractions(min_value=Fraction(1, 200), max_value=2, max_denominator=200)
#: rationals whose numerators or denominators leave int64 on their own
big = st.sampled_from([Fraction(3 ** 45, 7), Fraction(-5, 2 ** 70), Fraction(2 ** 61 + 1, 3)])


@st.composite
def float_families(draw):
    """Dyadic families in dims 2-4: random balls, exactly tangent pairs
    (equal radii r, bases 2r apart on the first coordinate) and at times
    a member at infinity."""
    dim = draw(st.integers(2, 4))
    balls = []
    for _ in range(draw(st.integers(1, 16))):
        base, r = tuple(draw(dyadic) for _ in range(dim - 1)), draw(dyadic_radius)
        balls.append(TangentHoroball(base, r))
        if draw(st.booleans()):
            balls.append(TangentHoroball((base[0] + 2 * r,) + base[1:], r))
    if draw(st.booleans()):
        balls.insert(draw(st.integers(0, len(balls))), AtInfinityHoroball(draw(dyadic_radius) * 4))
    return HoroballFamily(dim, balls)


@st.composite
def exact_families(draw, values=rational):
    """Rational families in dims 2-4 with exactly tangent Farey
    neighbours mixed in, and at times a member at infinity."""
    width = draw(st.integers(1, 3))
    balls = [TangentHoroball(tuple(draw(values) for _ in range(width)), draw(rational_radius))
             for _ in range(draw(st.integers(1, 12)))]
    for _ in range(draw(st.integers(0, 3))):
        q, q2 = draw(st.integers(1, 30)), draw(st.integers(1, 30))
        if math.gcd(q, q2) != 1:
            continue
        p = pow(-q2, -1, q) if q > 1 else 0
        rest = tuple(draw(rational) for _ in range(width - 1))
        for num, den in ((p, q), ((1 + p * q2) // q, q2)):
            balls.append(TangentHoroball((Fraction(num, den),) + rest, Fraction(1, 2 * den * den)))
    if draw(st.booleans()):
        balls.insert(draw(st.integers(0, len(balls))), AtInfinityHoroball(draw(rational_radius)))
    return HoroballFamily(width + 1, balls)


def moved_floats(v, shift, k):
    return tuple(math.ldexp(c + s, k) for c, s in zip(v, shift))


@st.composite
def geodesics(draw, width):
    """A full vertical line or arc with dyadic ends."""
    a = tuple(draw(dyadic) for _ in range(width))
    if draw(st.booleans()):
        return VerticalGeodesic(a)
    b = tuple(draw(dyadic) for _ in range(width))
    if a == b:
        b = (b[0] + 1,) + b[1:]
    return ArcGeodesic(a, b)


def moved_geodesic(g, shift, k):
    if isinstance(g, VerticalGeodesic):
        return VerticalGeodesic(moved_floats(g.foot, shift, k))
    return ArcGeodesic(moved_floats(g.a, shift, k), moved_floats(g.b, shift, k))


def both_paths(monkeypatch, *modules):
    """Patch _int_decide where modules read it so that every int64 run is
    run again on Python ints and compared; returns the list of (int64
    positions, object positions) of each call."""
    runs = []
    int_decide = packings._int_decide

    def both(bound, decide):
        got = int_decide(bound, decide)
        small = np.flatnonzero(bound < 2.0 ** 62)
        runs.append((len(small), len(bound) - len(small)))
        cols, again = got, decide(small, object)
        if isinstance(got, np.ndarray):
            cols, again = [got], [again]
        assert [c[small].tolist() for c in cols] == [c.tolist() for c in again]
        return got
    for module in modules:
        monkeypatch.setattr(module, "_int_decide", both)
    return runs


def same_columns(got, want):
    for a, b in zip(got, want):
        assert (a.dtype, a.shape, a.tolist()) == (b.dtype, b.shape, b.tolist())


class TestSimilarityAction:
    """Ratios.similar against the member-object Fraction oracle
    (transform): shift, then dilate by 2^k, in lowest terms."""

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.one_of(st.integers(-70, 70), st.sampled_from([1100, -1100])))
    def test_against_the_member_oracle(self, data, k):
        fam = data.draw(exact_families(st.one_of(rational, big)))
        width = fam.dim - 1
        shift = data.draw(st.one_of(st.none(), st.tuples(*[st.one_of(rational, big)] * width)))
        got = fam.exact.similar(shift, k)
        same_columns(got, transform(fam, Fraction(2) ** k, shift or 0).exact)
        for num, den in ((got.base_num, got.base_den), (got.radius_num, got.radius_den)):
            assert all(d > 0 and math.gcd(n, d) == 1
                       for n, d in zip(num.ravel().tolist(), den.ravel().tolist()))

    def test_int64_and_object_paths_agree(self, monkeypatch):
        # radii 2^-30 .. 2^-36 dilated by 2^-28 have denominators 2^58 ..
        # 2^64, on both sides of the int64 bound 2^62
        runs = both_paths(monkeypatch, packings)
        fam = HoroballFamily(3, [TangentHoroball((Fraction(1, 3), Fraction(m, 7)),
                                                 Fraction(1, 2 ** m)) for m in range(30, 37)])
        for shift in (None, (Fraction(-1, 3), Fraction(5, 11))):
            same_columns(fam.exact.similar(shift, -28),
                         transform(fam, Fraction(1, 2 ** 28), shift or 0).exact)
        assert runs and all(small and wide for small, wide in runs)

    def test_no_rows(self):
        empty = np.empty(0, dtype=np.int64)
        for k in (0, 5, -1100):
            got = packings.Ratios(empty.reshape(0, 2), empty.reshape(0, 2), empty, empty) \
                .similar((1, Fraction(1, 3)), k)
            assert [c.shape for c in got] == [(0, 2), (0, 2), (0,), (0,)]


class TestExactInversion:
    """The exact branch of rays._inverted, in int64 where a float bound
    allows it, against old_inverted (invert_horoball per member)."""

    def test_int64_and_object_paths_agree(self, monkeypatch):
        # at 0 the member at p/q inverts through integers bounded by
        # 2 p^2 q^2: below 2^62 for 32767/46341, above it for 32768/46341,
        # and beyond int64 for 55109/55111
        runs = both_paths(monkeypatch, packings, rays)
        balls = [TangentHoroball((Fraction(p, q),), Fraction(1, 2 * q * q))
                 for p, q in ((32767, 46341), (32768, 46341), (55109, 55111))]
        fam = HoroballFamily(2, farey(6, include_infinity=True).horoballs + balls)
        got = rays._inverted(fam, (0,))
        assert got.horoballs == old_inverted(fam, (0,)).horoballs
        assert runs[-1][0] and runs[-1][1]
        assert all(small for small, _ in runs)

    @pytest.mark.parametrize("p", [0, Fraction(1, 3), Fraction(-7, 5)])
    def test_farey_in_int64_alone(self, monkeypatch, p):
        runs = both_paths(monkeypatch, packings, rays)
        fam = farey(60, (-1, 2), include_infinity=True)
        assert rays._inverted(fam, (p,)).horoballs == old_inverted(fam, (p,)).horoballs
        assert runs and all(wide == 0 for _, wide in runs)


class TestInvariance:
    """Hypothesis, dims 2-4: the verdicts at scale 1 and after a dyadic
    translation and a dilation by 2^k (|k| <= 60, and +-1100 for exact
    families) are the same."""

    @settings(max_examples=80, deadline=None)
    @given(float_families(), st.integers(-60, 60), st.data())
    def test_validate_disjoint_of_float_families(self, fam, k, data):
        shift = data.draw(st.tuples(*[dyadic] * (fam.dim - 1)))
        moved = transform(fam, 2.0 ** k, shift)
        for kw in ({}, {"tol": 0.0}, {"tol": 1e-3}, {"exact": True}):
            want = validate_disjoint(fam, **kw).violations
            assert validate_disjoint(moved, **kw).violations == want, kw
        assert validate_disjoint(fam, exact=True).violations == \
            brute_validate_disjoint(fam, exact=True)

    @settings(max_examples=60, deadline=None)
    @given(exact_families(), st.one_of(st.integers(-60, 60), st.sampled_from([1100, -1100])),
           st.data())
    def test_validate_disjoint_of_exact_families(self, fam, k, data):
        shift = data.draw(st.tuples(*[rational] * (fam.dim - 1)))
        want = brute_validate_disjoint(fam, exact=True)
        moved = transform(fam, Fraction(2) ** k, shift)
        assert validate_disjoint(moved, exact=True).violations == want
        assert old_validate_disjoint_exact(moved) == want

    @settings(max_examples=80, deadline=None)
    @given(float_families(), st.integers(-60, 60), st.data())
    def test_penetrations_and_avoidance(self, fam, k, data):
        width = fam.dim - 1
        shift = data.draw(st.tuples(*[dyadic] * width))
        g = data.draw(geodesics(width))
        moved, g2 = transform(fam, 2.0 ** k, shift), moved_geodesic(g, shift, k)
        depths = penetrations(g, fam.columns)[0]
        assert penetrations(g2, moved.columns)[0].tolist() == depths.tolist()
        for t in (0.0, 0.5, 2.0):
            want = verify_avoidance(g, fam, t)
            got = verify_avoidance(g2, moved, t)
            assert (got.ok, got.max_depths) == (want.ok, want.max_depths)

    @settings(max_examples=60, deadline=None)
    @given(exact_families(), st.data())
    def test_inversion_keeps_exact_verdicts(self, fam, data):
        # inversion at a rational boundary point (at times the base of a
        # member, which goes to infinity) is an isometry of the model
        width = fam.dim - 1
        bases = [h.base for h in fam.horoballs if isinstance(h, TangentHoroball)]
        p = data.draw(st.one_of(st.sampled_from(bases), st.tuples(*[rational] * width)))
        want = validate_disjoint(fam, exact=True).violations
        assert validate_disjoint(rays._inverted(fam, p), exact=True).violations == want


class TestUnitExponent:
    @pytest.mark.parametrize("x", [0.0, 5e-324, 1e-310, 2.0 ** -1022, 0.5, 0.75, 1.0, 3.0,
                                   1e308, INF])
    def test_is_the_exponent_of_frexp(self, x):
        assert unit_exponent([x, -x / 2]) == -math.frexp(x)[1]
        if 0 < x < INF:
            assert 0.5 <= math.ldexp(x, unit_exponent([-x])) < 1

    def test_per_row(self):
        rows = np.array([[0.0, -3.0], [2.0 ** -1060, 0.0], [0.0, 0.0], [1e300, 1.0]])
        assert unit_exponent(rows, axis=1).tolist() == \
            [-math.frexp(max(map(abs, r)))[1] for r in rows.tolist()]

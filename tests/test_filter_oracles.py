"""Differential tests of the float filters in front of the scalar
predicates against the per-member loops they replaced, which are kept
here as oracles: the scan that stepped every member, the certificates
over every margin, verify_avoidance, _first_hit_after, and the nearest
horoball search and the inversion of ray_from_point; and of the depth
and interval pass, which no filter guards, against the scalar forms it
replaced (test_depth_oracles).

Each filter is also tested on its own, on draws at its bound: it may
keep a member the scalar test drops, never the other way round.  Draws
cover exact Farey tangencies, dilations by 2^+-60 and 10^+-12, and
Fraction members beyond the float range."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from horoshadow import rays, sharp2d, sharpnd
from horoshadow.halfspace import (
    INF,
    ArcGeodesic,
    AtInfinityHoroball,
    Point,
    TangentHoroball,
    VerticalGeodesic,
    geodesic_through,
    param_of,
    penetration_depth,
    penetration_interval,
    penetrations,
    point_to_horoball_dist,
    point_to_horoball_dists,
)
from horoshadow.numeric import DEFAULT_TOL, certify, may_be_le, min_candidates, to_float
from horoshadow.packings import (
    HoroballFamily,
    Ratios,
    farey,
    random_disjoint,
    validate_disjoint,
)
from horoshadow.sharp2d import solve_2d, step_2d
from horoshadow.sharpnd import margin_bounds, may_meet, solve_hnr, step_hnr
from horoshadow.uncover import AnnulusBall
from test_depth_oracles import (
    near,
    scalar_penetration_depth,
    scalar_penetration_interval,
    scalar_reads_subnormal,
)
from test_halfspace import invert_horoball
from test_packing_oracles import transform

# ---------------------------------------------------------------------------
# oracles: the per-member loops before the filters, verbatim up to names


def old_scan_chain(K, order, step):
    chain = [(0, K)]
    for pos, j in enumerate(order, start=1):
        K2 = step(K, j)
        if K2 is not None:
            chain.append((pos, K2))
            K = K2
    return chain


def old_certificate_2d(fam, endpoint, s, tol):
    radii = {i: h.radius for i, h in fam.tangent_items()}
    base = {i: h.base[0] for i, h in fam.tangent_items()}
    return certify({i: abs(endpoint[0] - base[i]) - s * r for i, r in radii.items()}, tol)


def old_certificate_hnr(fam, endpoint, s, tol):
    items = fam.tangent_items()
    radii = {i: float(h.radius) for i, h in items}
    base = dict(zip(radii, np.asarray([h.base for _, h in items], dtype=float)))
    endpoint = np.asarray(endpoint)
    return certify({i: float(np.linalg.norm(endpoint - base[i]) - s * radii[i])
                    for i in radii}, tol)


def old_verify_avoidance(g, fam, t, tol=DEFAULT_TOL):
    """(depths, ok, margin)"""
    depths = [(i, penetration_depth(g, h) - t)
              for i, h in enumerate(fam.horoballs)]
    worst = max(d for _, d in depths) if depths else -INF
    return depths, worst <= tol, -worst


def old_first_hit_after(g, t_x, forward, fam, skip, tol):
    ray = g.restricted(t_x, INF) if forward else g.restricted(-INF, t_x)
    best = None
    for i, h in enumerate(fam.horoballs):
        if i == skip or penetration_depth(ray, h) <= tol:
            continue
        span = penetration_interval(g, h)
        if span is None:
            continue
        entry = max(span[0] - t_x, 0) if forward else max(t_x - span[1], 0)
        if best is None or entry < best[1]:
            best = (i, entry)
    return None if best is None else best[0]


def old_nearest(fam, x, tol):
    """The nearest member of ray_from_point, or the exception it raised."""
    dists = [point_to_horoball_dist(x, h) for h in fam.horoballs]
    if not dists:
        raise ValueError("empty family")
    if min(dists) < -tol:
        raise ValueError("start point lies inside an open horoball")
    return dists.index(min(dists))


def old_inverted(fam, xi0):
    return HoroballFamily(fam.dim, [invert_horoball(h, xi0) for h in fam.horoballs])


# ---------------------------------------------------------------------------
# families


def as_floats(fam):
    return HoroballFamily(fam.dim, [
        TangentHoroball(tuple(map(float, h.base)), float(h.radius))
        if isinstance(h, TangentHoroball) else AtInfinityHoroball(float(h.height))
        for h in fam.horoballs])


#: dilations: powers of two keep float families exact, powers of ten and
#: the Fractions beyond the float range apply to the exact ones
POWERS = [2.0 ** 60, 2.0 ** -60, 1.0]
FRACTIONS = [Fraction(10) ** 12, Fraction(1, 10 ** 12), Fraction(2) ** 1100,
             Fraction(1, 2 ** 1100), Fraction(1)]

PLANAR = {"farey": farey(9), "farey+inf": farey(8, (0, 1), include_infinity=True),
          "random-2d": random_disjoint(40, 2, 5)}
SPACE = {"random-3d": random_disjoint(50, 3, 4), "random-4d": random_disjoint(40, 4, 9),
         "farey": farey(7)}


@st.composite
def planar_families(draw):
    fam = PLANAR[draw(st.sampled_from(sorted(PLANAR)))]
    if draw(st.booleans()) and fam is not PLANAR["random-2d"]:
        return transform(fam, draw(st.sampled_from(FRACTIONS)))
    return transform(as_floats(fam), draw(st.sampled_from(POWERS)))


# ---------------------------------------------------------------------------
# the scan of the sharp solvers


def oracle_scan(monkeypatch, module):
    """The module's solvers with the per-member scan in place of the
    filtered one."""
    monkeypatch.setattr(module, "scan_chain",
                        lambda K, order, step, may_meet=None: old_scan_chain(K, order, step))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ValueError, ArithmeticError, sharp2d.CertificateError) as exc:
        return "raised", type(exc)


class TestLineScan:
    @settings(max_examples=120, deadline=None)
    @given(planar_families(), st.floats(0.05, 0.62), st.sampled_from([(-1,), (1,)]),
           st.booleans())
    def test_matches_the_per_member_scan(self, fam, s, direction, exact_s):
        if exact_s:
            s = Fraction(s).limit_denominator(1000)
        new = outcome(solve_2d, fam, s, None, direction)
        with pytest.MonkeyPatch.context() as mp:
            oracle_scan(mp, sharpnd)
            old = outcome(solve_2d, fam, s, None, direction)
        assert new[0] == old[0]
        if new[0] == "raised":
            assert new == old
            return
        sol, want = new[1], old[1]
        assert (sol.endpoint, sol.witness) == (want.endpoint, want.witness)
        assert sol.certificate == old_certificate_2d(fam, sol.endpoint, s, DEFAULT_TOL)

    def test_exact_ties_in_the_certificate_go_to_the_first_index(self):
        # farey(6) is symmetric about 1/2, so members mirrored about an
        # endpoint near 1/2 tie in their margins over the rationals
        fam = farey(6)
        for s in (Fraction(1, 5), Fraction(3, 5), 0.2, 0.6):
            tol = 0 if isinstance(s, Fraction) else DEFAULT_TOL
            for start in (None, 0, 3):
                for direction in ((-1,), (1,)):
                    new = outcome(solve_2d, fam, s, start, direction, tol)
                    with pytest.MonkeyPatch.context() as mp:
                        oracle_scan(mp, sharpnd)
                        old = outcome(solve_2d, fam, s, start, direction, tol)
                    assert new[0] == old[0]
                    if new[0] == "ok":
                        assert new[1].certificate == old_certificate_2d(
                            fam, new[1].endpoint, s, tol)

    @settings(max_examples=400, deadline=None)
    @given(st.data(), st.sampled_from([1.0, 2.0 ** 60, 2.0 ** -60, 1e12, 1e-12]))
    def test_filter_keeps_every_member_the_line_step_keeps(self, data, k):
        # a shadow end within a few ulps of the widened interval end
        lo = k * data.draw(st.floats(-4, 4))
        hi = lo + k * data.draw(st.floats(1e-3, 2))
        r = k * data.draw(st.floats(1e-3, 1))
        s = data.draw(st.floats(0.05, 0.62))
        tol = data.draw(st.sampled_from([0.0, DEFAULT_TOL, k * DEFAULT_TOL]))
        ulps = data.draw(st.integers(-3, 3))
        edge = lo - tol if data.draw(st.booleans()) else hi + tol
        reach = s * r
        b = (edge - reach) if edge == lo - tol else (edge + reach)
        for _ in range(abs(ulps)):
            b = math.nextafter(b, math.copysign(INF, ulps))
        kept = bool(may_meet(interval_ball(lo, hi), np.array([[b]]), np.array([s * r]), tol)[0])
        scalar = outcome(step_2d, (lo, hi), b, r, s, -1, tol)
        assert kept or scalar == ("ok", None)

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(-4, 4, max_denominator=10 ** 6), st.fractions(Fraction(1, 10 ** 6), 2),
           st.fractions(Fraction(1, 10 ** 6), 1), st.fractions(Fraction(1, 20), Fraction(3, 5)),
           st.integers(-2, 2), st.sampled_from(FRACTIONS), st.booleans())
    def test_filter_on_exact_members(self, lo, width, r, s, nudge, k, left):
        # Fraction ends exactly at the interval end, or 1e-30 off, at
        # every scale, also where every float conversion overflows
        lo, hi, r = k * lo, k * (lo + width), k * r
        b = (lo - s * r if left else hi + s * r) + nudge * k * Fraction(1, 10 ** 30)
        float_b = np.array([[to_float(b)]])
        kept = bool(may_meet(interval_ball(lo, hi), float_b,
                             np.array([to_float(s) * to_float(r)]), 0)[0])
        assert kept or step_2d((lo, hi), b, r, s, -1, 0) is None


def interval_ball(lo, hi):
    """The interval [lo, hi] as the element of the line solver."""
    return AnnulusBall(((lo + hi) / 2,), (hi - lo) / 2)


def within_bound(approx, err, sq_gap, sr):
    """Whether sqrt(sq_gap) - sr (Fractions) lies within err of approx
    (floats), decided over the rationals: squared, as
    approx - err + sr <= sqrt(sq_gap) <= approx + err + sr."""
    low, high = Fraction(approx) - Fraction(err) + sr, Fraction(approx) + Fraction(err) + sr
    return (low <= 0 or low * low <= sq_gap) and high >= 0 and sq_gap <= high * high


class TestMarginBounds:
    @settings(max_examples=300, deadline=None)
    @given(st.fractions(-4, 4, max_denominator=10 ** 12),
           st.fractions(-4, 4, max_denominator=10 ** 9),
           st.fractions(Fraction(1, 10 ** 6), 1, max_denominator=10 ** 9),
           st.fractions(Fraction(1, 20), Fraction(3, 5), max_denominator=10 ** 6),
           st.sampled_from(FRACTIONS), st.booleans())
    def test_bound_holds_on_exact_values(self, e, b, r, s, k, near):
        # the certificate's float margins against the exact ones, on the
        # line, where e is a number; near puts b within 4e-15 of e
        if near:
            b = e + b * Fraction(1, 10 ** 15)
        e, b, r = k * e, k * b, k * r
        approx, err = margin_bounds((e,), np.array([[to_float(b)]]),
                                    np.array([to_float(s) * to_float(r)]))
        exact = abs(e - b) - s * r
        if err[0] < INF and abs(approx[0]) < INF:
            assert abs(Fraction(approx[0]) - exact) <= Fraction(err[0])

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(2, 3),
           st.sampled_from([1.0, 2.0 ** 60, 2.0 ** -60, 1e12, 1e-12]))
    def test_bound_holds_on_float_rows(self, data, n, k):
        # a point e and a base b in R^n, b at most 2^-30 k away in some
        # draws, against the exact margin |e - b| - s r of the floats
        e = tuple(k * data.draw(st.floats(-4, 4)) for _ in range(n))
        near = data.draw(st.booleans())
        step = st.floats(-2.0 ** -30, 2.0 ** -30) if near else st.floats(-4, 4)
        b = np.array([c + k * data.draw(step) for c in e])
        r = k * data.draw(st.floats(1e-6, 1))
        s = data.draw(st.floats(0.05, 0.62))
        approx, err = margin_bounds(e, b[None, :], np.array([s * r]))
        sq_gap = sum((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(e, b.tolist()))
        assert within_bound(approx[0], err[0], sq_gap, Fraction(s) * Fraction(r))


class TestSpaceScan:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(SPACE)), st.floats(0.05, 0.62),
           st.sampled_from(POWERS), st.sampled_from([1.0, -1.0]))
    def test_matches_the_per_member_scan(self, name, s, k, sign):
        fam = transform(as_floats(SPACE[name]), k)
        direction = (sign,) + (0.0,) * (fam.dim - 2)
        new = outcome(solve_hnr, fam, s, None, direction)
        with pytest.MonkeyPatch.context() as mp:
            oracle_scan(mp, sharpnd)
            old = outcome(solve_hnr, fam, s, None, direction)
        assert new[0] == old[0]
        if new[0] == "raised":
            assert new == old
            return
        sol, want = new[1], old[1]
        assert (sol.endpoint, sol.witness) == (want.endpoint, want.witness)
        # the solver measures with math.hypot, the oracle with
        # np.linalg.norm: the same member and count, margins to rounding
        want = old_certificate_hnr(fam, sol.endpoint, s, DEFAULT_TOL)
        assert (sol.certificate.index, sol.certificate.checks) == (want.index, want.checks)
        assert sol.certificate.margin == pytest.approx(want.margin, rel=1e-12, abs=1e-15 * k)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 3), st.sampled_from([1.0, 2.0 ** 60, 2.0 ** -60, 1e12]))
    def test_filter_keeps_every_member_step_hnr_keeps(self, data, n, k):
        unit = st.floats(-1, 1)
        y = np.array([k * data.draw(unit) for _ in range(n)])
        x = y + k * np.array([data.draw(st.floats(0.1, 1))] + [0.0] * (n - 1))
        R = k * data.draw(st.floats(1e-3, 0.5))
        r2 = k * data.draw(st.floats(1e-3, 0.5))
        s = data.draw(st.floats(0.05, 0.62))
        tol = data.draw(st.sampled_from([0.0, DEFAULT_TOL]))
        u = np.array([data.draw(unit) for _ in range(n)])
        assume(np.linalg.norm(u) > 0.1)
        # the other center at distance R + s r2 + tol from y, nudged by ulps
        reach = R + s * r2 + tol
        x2 = y + u * (reach / np.linalg.norm(u))
        x2[0] = x2[0] + data.draw(st.integers(-4, 4)) * np.spacing(x2[0])
        K = AnnulusBall(tuple(map(float, y)), R, 0)
        kept = bool(may_meet(K, x2[None, :], np.array([s * r2]), tol)[0])
        parent = TangentHoroball(tuple(map(float, x)), k)
        other = TangentHoroball(tuple(map(float, x2)), r2)
        scalar = outcome(step_hnr, parent, K, other, s, 1, tol)
        assert kept or scalar == ("ok", None)


# ---------------------------------------------------------------------------
# the certificate candidates


class TestMinCandidates:
    def test_empty_nan_and_inf(self):
        assert min_candidates(np.array([]), np.array([])).tolist() == []
        got = min_candidates(np.array([1.0, np.nan, 0.5, -np.inf]), np.zeros(4))
        assert got.tolist() == [1, 3]
        got = min_candidates(np.array([1.0, 2.0]), np.array([0.0, np.inf]))
        assert got.tolist() == [0, 1]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.fractions(-3, 3, max_denominator=50), min_size=1, max_size=30),
           st.data())
    def test_every_minimum_is_a_candidate(self, exact, data):
        # float values within err of the exact ones, ties included
        err = np.array([data.draw(st.floats(0, 1e-3)) for _ in exact])
        noise = np.array([data.draw(st.floats(-1, 1)) for _ in exact])
        approx = np.array([float(v) for v in exact]) + noise * err
        low = min(exact)
        got = set(min_candidates(approx, err).tolist())
        assert {i for i, v in enumerate(exact) if v == low} <= got


class TestMayBeLe:
    @settings(max_examples=300, deadline=None)
    @given(st.fractions(-10, 10, max_denominator=10 ** 9), st.fractions(-10, 10),
           st.sampled_from(FRACTIONS))
    def test_holds_wherever_the_exact_test_holds(self, lhs, gap, k):
        rhs = lhs + gap * Fraction(1, 10 ** 20)
        lf, rf = to_float(k * lhs), to_float(k * rhs)
        if k * lhs <= k * rhs:
            assert may_be_le(lf, rf, abs(lf) + abs(rf))


# ---------------------------------------------------------------------------
# the depth passes of rays


def ford_like(number=float):
    """Gaussian Ford spheres of |q|^2 <= 5 in the unit square, plus the
    horoball at infinity, with every value of the type number."""
    best = {}
    for q1 in range(-3, 4):
        for q2 in range(-3, 4):
            n = q1 * q1 + q2 * q2
            if not 0 < n <= 5:
                continue
            for z1 in range(n + 1):
                for z2 in range(n + 1):
                    if (z1 * q1 - z2 * q2) % n or (z1 * q2 + z2 * q1) % n:
                        continue
                    z = (Fraction(z1, n), Fraction(z2, n))
                    best[z] = min(best.get(z, n), n)
    balls = [TangentHoroball(tuple(map(number, z)), number(Fraction(1, 2 * n)))
             for z, n in sorted(best.items())]
    return HoroballFamily(3, balls + [AtInfinityHoroball(number(1))])


RAY_FAMILIES = {"farey12+inf": farey(12, (0, 1), include_infinity=True),
                "farey12+inf-float": as_floats(farey(12, (0, 1), include_infinity=True)),
                "ford5+inf": ford_like()}


@st.composite
def geodesics(draw, dim, k=1.0):
    point = st.tuples(*[st.floats(-0.5, 1.5, allow_nan=False)] * dim)
    ends = st.floats(-6, 6)
    lo, hi = sorted((draw(ends), draw(ends)))
    rng = draw(st.sampled_from([(-INF, INF), (lo, INF), (-INF, hi), (lo, hi)]))
    if draw(st.booleans()):
        return VerticalGeodesic(tuple(k * c for c in draw(point)), rng)
    a, b = draw(point), draw(point)
    # ends closer than that make rho, and the scalar kernel, degenerate
    assume(sum((x - y) ** 2 for x, y in zip(a, b)) >= 1e-6)
    return ArcGeodesic(tuple(k * c for c in a), tuple(k * c for c in b), rng)


class TestDepthPasses:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(RAY_FAMILIES)), st.data(),
           st.sampled_from([1.0, 2.0 ** 60, 2.0 ** -60, 1e12, 1e-12]))
    def test_bounds_hold(self, name, data, k):
        # the depth and interval pass against the scalar forms it replaced:
        # equal, or within 1e-15 max(1, |value|) (numpy's log1p and expm1
        # differ from math's in the last bit), with the same infinities
        # and empty intervals, except where the scalar form reads a
        # subnormal value; the distance pass within its bound
        fam = RAY_FAMILIES[name]
        if k != 1.0:
            fam = transform(as_floats(fam), k)
        g = data.draw(geodesics(fam.dim - 1, k))
        depths, lo, hi = penetrations(g, fam.columns)
        for i, h in enumerate(fam.horoballs):
            got = outcome(scalar_penetration_depth, g, h)
            if got[0] == "raised" or scalar_reads_subnormal(g, h):
                continue
            assert near(depths[i], got[1], 1e-15)
            span = scalar_penetration_interval(g, h)
            assert (span is None) == math.isnan(lo[i]) == math.isnan(hi[i])
            if span is not None:
                assert near(lo[i], span[0], 1e-15) and near(hi[i], span[1], 1e-15)
        x = Point(tuple(k * data.draw(st.floats(0, 1)) for _ in range(fam.dim - 1)),
                  k * data.draw(st.floats(0.01, 3)))
        approx, err = point_to_horoball_dists(x, fam.columns)
        for i, h in enumerate(fam.horoballs):
            want = point_to_horoball_dist(x, h)
            assert abs(approx[i] - want) <= err[i] or approx[i] == want

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(RAY_FAMILIES)), st.data(),
           st.floats(0, 3), st.sampled_from([1.0, 2.0 ** 60, 2.0 ** -60]))
    def test_verify_avoidance_matches_oracle(self, name, data, t, k):
        fam = RAY_FAMILIES[name]
        if k != 1.0:
            fam = transform(as_floats(fam), k)
        g = data.draw(geodesics(fam.dim - 1, k))
        new = outcome(rays.verify_avoidance, g, fam, t)
        old = outcome(old_verify_avoidance, g, fam, t)
        assert new[0] == old[0]
        if new[0] == "raised":
            assert new == old
            return
        rep, (depths, ok, margin) = new[1], old[1]
        assert (rep.ok, rep.margin) == (ok, margin)
        assert [i for i, _ in rep.max_depths] == [i for i, _ in depths]
        for (_, got), (_, want) in zip(rep.max_depths, depths):
            assert got == want or abs(got - want) <= 1e-12

    def test_verify_avoidance_at_a_tangency(self):
        # the vertical line over 1/2 touches the members at 0 and 1 of
        # farey(1): two depths of exactly 0, tied
        fam = farey(1)
        g = VerticalGeodesic((Fraction(1, 2),))
        rep = rays.verify_avoidance(g, fam, 0.0)
        depths, ok, margin = old_verify_avoidance(g, fam, 0.0)
        assert (rep.ok, rep.margin, rep.max_depths) == (ok, margin, depths)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(RAY_FAMILIES)), st.data(),
           st.sampled_from([1.0, 2.0 ** 60, 2.0 ** -60]))
    def test_first_hit_matches_oracle(self, name, data, k):
        fam = RAY_FAMILIES[name]
        if k != 1.0:
            fam = transform(as_floats(fam), k)
        n = fam.dim - 1
        x = Point(tuple(k * data.draw(st.floats(0, 1)) for _ in range(n)),
                  k * data.draw(st.floats(0.02, 1.5)))
        how = data.draw(st.sampled_from(["member", "infinity", "boundary"]))
        skip = -1
        if how == "member":
            skip = data.draw(st.integers(0, len(fam.horoballs) - 2))
            xi = fam.horoballs[skip].base
        elif how == "infinity":
            skip, xi = len(fam.horoballs) - 1, None
        else:
            xi = tuple(k * data.draw(st.floats(-2, 3)) for _ in range(n))
        assume(xi is None or sum((float(a) - float(b)) ** 2
                                 for a, b in zip(x.base, xi)) >= (1e-3 * k) ** 2)
        g = geodesic_through(x, xi)
        t_x = param_of(g, x)
        forward = data.draw(st.booleans())
        assert outcome(rays._first_hit_after, g, t_x, forward, fam, skip, DEFAULT_TOL) == \
            outcome(old_first_hit_after, g, t_x, forward, fam, skip, DEFAULT_TOL)


# ---------------------------------------------------------------------------
# ray_from_point: the nearest member and the inversion


@st.composite
def inversion_cases(draw, exact):
    """(family, p): members in dims 2-4 whose bases lie 2^e (e in
    -600, 0, 600) from p, or are p itself, with radii and heights at
    those scales and members at infinity among them; p lies at such a
    scale too.  Exact families hold Fractions of small denominators, at
    scale 1 (their inversion leaves no range)."""
    dim = draw(st.integers(2, 4))
    if exact:
        num = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
        p = tuple(draw(num) for _ in range(dim - 1))
        offsets, radii = st.tuples(*[num] * (dim - 1)), num.filter(lambda r: r > 0)
    else:
        scale = st.sampled_from([-600, 0, 600])
        unit = st.floats(-1, 1, allow_nan=False)
        p = tuple(math.ldexp(draw(unit), draw(scale)) for _ in range(dim - 1))
        offsets = st.builds(lambda e, *c: tuple(math.ldexp(x, e) for x in c),
                            scale, *[unit] * (dim - 1))
        radii = st.builds(math.ldexp, st.floats(2.0 ** -10, 1), scale)
    balls = [TangentHoroball(tuple(a + b for a, b in zip(p, draw(offsets))), draw(radii))
             for _ in range(draw(st.integers(0, 8)))]
    balls.insert(draw(st.integers(0, len(balls))), TangentHoroball(p, draw(radii)))
    for _ in range(draw(st.integers(0, 2))):
        balls.insert(draw(st.integers(0, len(balls))), AtInfinityHoroball(draw(radii)))
    return HoroballFamily(dim, balls), p


def inversion_outcome(fam, p, oracle=False):
    """The inverted members as their repr, which tells -0.0 from 0.0 and
    a Fraction from a float, or the type and message of the error."""
    try:
        inverted = old_inverted(fam, p) if oracle else rays._inverted(fam, p)
        return "ok", repr(list(inverted.horoballs))
    except (ValueError, OverflowError) as exc:
        return "raised", type(exc), str(exc)


class TestRayFromPoint:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(RAY_FAMILIES)), st.data(),
           st.sampled_from([1.0, 2.0 ** 60, 2.0 ** -60]))
    def test_nearest_matches_oracle(self, name, data, k):
        fam = RAY_FAMILIES[name]
        if k != 1.0:
            fam = transform(as_floats(fam), k)
        n = fam.dim - 1
        x = Point(tuple(k * data.draw(st.floats(0, 1)) for _ in range(n)),
                  k * data.draw(st.floats(0.01, 1.2)))
        tol = data.draw(st.sampled_from([0.0, DEFAULT_TOL, 0.5]))
        assert outcome(rays._nearest, fam, x, tol) == outcome(old_nearest, fam, x, tol)

    def test_nearest_ties_and_horospheres(self):
        # the points over 1/2 are equally far from the members at 0 and
        # 1 of farey(1); the point at height 1 is on both horospheres
        fam = farey(1, (0, 1), include_infinity=True)
        for height in (0.25, 0.5, 1.0, 2.0):
            x = Point((0.5,), height)
            assert outcome(rays._nearest, fam, x, DEFAULT_TOL) == \
                outcome(old_nearest, fam, x, DEFAULT_TOL)
        assert outcome(rays._nearest, HoroballFamily(2, []), Point((0.5,), 1.0), 0) == \
            outcome(old_nearest, HoroballFamily(2, []), Point((0.5,), 1.0), 0)

    @pytest.mark.parametrize("name", sorted(RAY_FAMILIES))
    def test_inversion_is_member_for_member(self, name):
        fam = RAY_FAMILIES[name]
        for i in (0, 3, len(fam.horoballs) - 2):
            p = fam.horoballs[i].base
            got, want = rays._inverted(fam, p), old_inverted(fam, p)
            assert got.horoballs == want.horoballs
            assert [type(c) for h in got.horoballs if isinstance(h, TangentHoroball)
                    for c in h.base + (h.radius,)] == \
                [type(c) for h in want.horoballs if isinstance(h, TangentHoroball)
                 for c in h.base + (h.radius,)]

    @pytest.mark.parametrize("fam", [farey(12, (0, 1), include_infinity=True),
                                     ford_like(Fraction)], ids=["farey12+inf", "ford5+inf"])
    @pytest.mark.parametrize("k", FRACTIONS, ids=["10^12", "10^-12", "2^1100", "2^-1100", "1"])
    def test_exact_inversion_in_integers(self, fam, k):
        # the integer pass over the Ratios against invert_horoball in
        # Fractions: the same members and the same Ratios, int64 columns
        # included; at 2^(+-1100) the values pass int64
        fam = transform(fam, k)
        for p in (fam.horoballs[3].base, (Fraction(1, 3),) * (fam.dim - 1),
                  (0.375,) * (fam.dim - 1)):
            got, want = rays._inverted(fam, p), old_inverted(fam, tuple(map(Fraction, p)))
            assert got.horoballs == want.horoballs
            for key in Ratios.__slots__:
                a, b = getattr(got.exact, key), getattr(want.exact, key)
                assert (a.dtype, a.tolist()) == (b.dtype, b.tolist()), key
            if k in (Fraction(2) ** 1100, Fraction(1, 2 ** 1100)):
                assert any(getattr(got.exact, key).dtype == object for key in Ratios.__slots__)

    @pytest.mark.parametrize("k", [-600, 600])
    def test_float_inversion_outside_the_square_range(self, k):
        # the rows whose |b - p|^2 leaves the normal range are inverted
        # at unit scale, by the power-of-two dilation of invert_horoball
        unit = RAY_FAMILIES["farey12+inf-float"]
        fam = transform(unit, 2.0 ** k)
        p = fam.horoballs[3].base
        got = rays._inverted(fam, p)
        assert got.horoballs == old_inverted(fam, p).horoballs
        for h, h1 in zip(got.horoballs, rays._inverted(unit, unit.horoballs[3].base).horoballs):
            if isinstance(h, TangentHoroball):
                assert h.radius == pytest.approx(math.ldexp(h1.radius, -k), rel=1e-15)
                assert h.base[0] == pytest.approx(math.ldexp(h1.base[0], -k), rel=1e-15)
            else:
                assert h.height == pytest.approx(math.ldexp(h1.height, -k), rel=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 10 ** 6), st.data())
    def test_inversion_at_drawn_points(self, dim, seed, data):
        fam = random_disjoint(30, dim, seed % 50)
        if data.draw(st.booleans()):
            p = fam.horoballs[data.draw(st.integers(0, 29))].base
        else:
            p = tuple(data.draw(st.floats(-2, 8)) for _ in range(dim - 1))
        assert rays._inverted(fam, p).horoballs == old_inverted(fam, p).horoballs

    @settings(max_examples=200, deadline=None)
    @given(inversion_cases(exact=False))
    def test_float_inversion_at_mixed_scales(self, case):
        # rows inside and outside the square range, one based exactly at
        # p, members at infinity: the members bit for bit, or the error
        fam, p = case
        assert inversion_outcome(fam, p) == inversion_outcome(fam, p, oracle=True)

    @settings(max_examples=60, deadline=None)
    @given(inversion_cases(exact=True))
    def test_exact_inversion_with_a_member_at_p(self, case):
        fam, p = case
        got = inversion_outcome(fam, p)
        assert got == inversion_outcome(fam, p, oracle=True)
        assert got[0] == "ok"


# ---------------------------------------------------------------------------
# validate_disjoint: the tangent members against the one at infinity


class TestTangentAgainstInfinity:
    @pytest.mark.parametrize("exact", [False, True])
    def test_at_the_bound(self, exact):
        # 2r against h (1 + slack), one ulp either side and exactly at it
        h = 1.0
        slack = 0 if exact else DEFAULT_TOL
        cap = h * (1 + slack) / 2
        rs = [math.nextafter(cap, 0), cap, math.nextafter(cap, 2)]
        balls = [TangentHoroball((float(3 * i),), r) for i, r in enumerate(rs)]
        fam = HoroballFamily(2, balls + [AtInfinityHoroball(h)])
        assert validate_disjoint(fam, exact=exact).violations == [(2, 3)]

    def test_beyond_the_float_range(self):
        big = Fraction(2) ** 1100
        fam = HoroballFamily(2, [TangentHoroball((0,), big / 2),
                                 TangentHoroball((4 * big,), big / 2 + Fraction(1, 10 ** 9)),
                                 AtInfinityHoroball(big)])
        assert validate_disjoint(fam, exact=True).violations == [(1, 2)]

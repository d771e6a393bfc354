import cmath
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from horoshadow.heisenberg import (
    CC_EQUIVALENCE,
    IDENTITY,
    HeisPoint,
    cc_dist,
    cc_point_toward,
    complex_hyperbolic_shrink_time,
    cygan_dist,
    dilate,
    extend_sphere_cc,
    heis_inv,
    heis_modulus,
    heis_mul,
    heisenberg_space,
)
from horoshadow.uncover import _DIST_REL_ERR, BallFamily, canonical_ball, uncover

finite = st.floats(min_value=-3, max_value=3, allow_nan=False)


def hpoints(rnd, n, span=2.0, vspan=4.0):
    return [HeisPoint(complex(rnd.uniform(-span, span), rnd.uniform(-span, span)),
                      rnd.uniform(-vspan, vspan)) for _ in range(n)]


def polyline_cc_oracle(target: HeisPoint, segments=40):
    """Brute-force upper bound on the CC distance: minimal Euclidean
    length of a planar polyline from 0 to zeta whose horizontal lift
    reaches vertical coordinate v (the lift of a straight planar segment
    adds -2 Im(conj(z_k) z_{k+1}) to v, exactly)."""
    from scipy.optimize import minimize

    zeta, v = target.zeta, target.v
    tt = np.linspace(0, 1, segments + 1)
    base = np.array([zeta.real, zeta.imag]) * tt[:, None]
    normal = np.array([zeta.imag, -zeta.real])
    n = np.linalg.norm(normal)
    normal = normal / n if n > 1e-12 else np.array([1.0, 0.0])
    bow = np.sin(np.pi * tt)[:, None]
    scale = math.sqrt(abs(v)) if v else 0.0
    sign = 0.8 if v > 0 else -0.8
    x0 = (base + sign * scale * bow * normal)[1:-1].ravel()

    def unpack(x):
        return np.vstack([[0, 0], x.reshape(-1, 2), [zeta.real, zeta.imag]])

    def length(x):
        return float(np.sum(np.linalg.norm(np.diff(unpack(x), axis=0), axis=1)))

    def holonomy(x):
        pts = unpack(x)
        z = pts[:, 0] + 1j * pts[:, 1]
        return float(-2 * np.sum((np.conj(z[:-1]) * z[1:]).imag) - v)

    res = minimize(length, x0, constraints=[{"type": "eq", "fun": holonomy}],
                   method="SLSQP", options={"maxiter": 300, "ftol": 1e-12})
    return float(res.fun)


class TestGroup:
    def test_identity_and_inverse(self):
        a = HeisPoint(1.5 - 0.3j, 2.0)
        assert heis_mul(IDENTITY, a) == a
        assert heis_mul(a, heis_inv(a)) == IDENTITY

    def test_twist_term(self):
        got = heis_mul(HeisPoint(1, 0), HeisPoint(1j, 0))
        assert got.zeta == 1 + 1j
        assert got.v == -2  # 2 Im(1 * conj(i)) = -2

    @given(finite, finite, finite, finite, finite, finite)
    @settings(max_examples=60)
    def test_associativity(self, x1, y1, v1, x2, y2, v2):
        a = HeisPoint(complex(x1, y1), v1)
        b = HeisPoint(complex(x2, y2), v2)
        c = HeisPoint(0.4 - 0.7j, 1.1)
        lhs = heis_mul(heis_mul(a, b), c)
        rhs = heis_mul(a, heis_mul(b, c))
        assert lhs.zeta == pytest.approx(rhs.zeta)
        assert lhs.v == pytest.approx(rhs.v)


class TestCygan:
    def test_gauge_values(self):
        assert cygan_dist(IDENTITY, HeisPoint(1, 0)) == 1
        assert cygan_dist(IDENTITY, HeisPoint(0, 1)) == 1
        assert cygan_dist(IDENTITY, HeisPoint(1, 1)) == pytest.approx(2 ** 0.25)

    def test_left_invariance_exact(self):
        rnd = random.Random(31)
        for g, a, b in zip(hpoints(rnd, 40), hpoints(rnd, 40), hpoints(rnd, 40)):
            d0 = cygan_dist(a, b)
            d1 = cygan_dist(heis_mul(g, a), heis_mul(g, b))
            assert d1 == pytest.approx(d0, rel=1e-12)

    def test_symmetry_and_zero(self):
        rnd = random.Random(32)
        for a, b in zip(hpoints(rnd, 30), hpoints(rnd, 30)):
            assert cygan_dist(a, b) == pytest.approx(cygan_dist(b, a), rel=1e-12)
            assert cygan_dist(a, a) == 0


class TestDilation:
    def test_formula(self):
        assert dilate(HeisPoint(1, 1), 2) == HeisPoint(2, 4)

    def test_morphism(self):
        rnd = random.Random(33)
        for a, b in zip(hpoints(rnd, 30), hpoints(rnd, 30)):
            t = rnd.uniform(0.2, 3)
            lhs = dilate(heis_mul(a, b), t)
            rhs = heis_mul(dilate(a, t), dilate(b, t))
            assert lhs.zeta == pytest.approx(rhs.zeta, abs=1e-12)
            assert lhs.v == pytest.approx(rhs.v, abs=1e-12)

    def test_one_parameter_group(self):
        a = HeisPoint(0.7 + 0.2j, -1.3)
        lhs = dilate(dilate(a, 0.6), 2.5)
        rhs = dilate(a, 1.5)
        assert lhs.zeta == pytest.approx(rhs.zeta) and lhs.v == pytest.approx(rhs.v)

    def test_scales_cygan_exactly(self):
        rnd = random.Random(34)
        for a, b in zip(hpoints(rnd, 50), hpoints(rnd, 50)):
            t = rnd.uniform(0.1, 4)
            assert cygan_dist(dilate(a, t), dilate(b, t)) == pytest.approx(
                t * cygan_dist(a, b), rel=1e-12)


class TestCarnotCaratheodory:
    def test_horizontal_segment(self):
        assert cc_dist(IDENTITY, HeisPoint(1, 0)) == pytest.approx(1, abs=1e-12)

    def test_vertical_saturates_upper_bound(self):
        got = cc_dist(IDENTITY, HeisPoint(0, 1))
        assert got == pytest.approx(math.sqrt(math.pi), abs=1e-9)
        # independent path optimizer agrees from above
        ub = polyline_cc_oracle(HeisPoint(0, 1))
        assert got <= ub + 1e-9
        assert ub <= got * (1 + 3e-3)

    def test_against_path_oracle(self):
        for target in (HeisPoint(1, 1), HeisPoint(0.5 + 0.3j, -0.7),
                       HeisPoint(2 + 1j, 3.0)):
            closed = cc_dist(IDENTITY, target)
            ub = polyline_cc_oracle(target)
            assert closed <= ub + 1e-9
            assert ub <= closed * (1 + 3e-3)

    def test_sandwich(self):
        rnd = random.Random(35)
        for a, b in zip(hpoints(rnd, 1000), hpoints(rnd, 1000)):
            dc = cygan_dist(a, b)
            dcc = cc_dist(a, b)
            assert dc - 1e-9 <= dcc <= math.sqrt(math.pi) * dc + 1e-9

    def test_dilation_scaling(self):
        rnd = random.Random(36)
        for a, b in zip(hpoints(rnd, 300), hpoints(rnd, 300)):
            t = rnd.uniform(0.2, 3)
            got = cc_dist(dilate(a, t), dilate(b, t))
            assert got == pytest.approx(t * cc_dist(a, b), rel=2e-3)


def mp_cc_length(R, v):
    """CC length from the identity to a point at planar distance R > 0
    with holonomy v != 0, at 50 digits: the arc sweeps theta = 2 pi - e
    with (theta - sin theta) / (2 sin^2(theta / 2)) = |v| / R^2, and has
    length theta R / (2 sin(theta / 2))."""
    with mpmath.workdps(50):
        R, ratio = mpmath.mpf(R), abs(mpmath.mpf(v)) / mpmath.mpf(R) ** 2
        pi = mpmath.pi
        e = mpmath.findroot(
            lambda e: 2 * pi - e + mpmath.sin(e) - 2 * ratio * mpmath.sin(e / 2) ** 2,
            mpmath.sqrt(4 * pi / ratio))
        return float((2 * pi - e) * R / (2 * mpmath.sin(e / 2)))


class TestNearVertical:
    """Displacements with |dzeta| / sqrt|dv| from 1e-15 to 1e-8, across
    the end of the bracket of the arc angle, where cc_dist used to raise
    "target not bracketed" (for ratios 1e-13 to 1e-10)."""

    @pytest.mark.parametrize("ratio", [10 ** (k / 4) for k in range(-60, -31)])
    @pytest.mark.parametrize("v", [1.0, -4.0, 1e-6, 1e6])
    def test_against_mpmath(self, ratio, v):
        z = ratio * math.sqrt(abs(v)) * cmath.exp(0.7j)
        got = cc_dist(IDENTITY, HeisPoint(z, v))
        assert got == pytest.approx(mp_cc_length(abs(z), v), rel=5e-5)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-15, -8), st.floats(-6, 6), st.floats(0, 2 * math.pi),
           st.sampled_from([-1.0, 1.0]))
    def test_drawn_against_mpmath(self, log_ratio, log_v, phase, sign):
        v = sign * 10 ** log_v
        z = 10 ** log_ratio * math.sqrt(abs(v)) * cmath.exp(1j * phase)
        assume(abs(z) > 0)
        got = cc_dist(IDENTITY, HeisPoint(z, v))
        assert got == pytest.approx(mp_cc_length(abs(z), v), rel=5e-5)

    def test_full_circle_below_the_old_switch_is_unchanged(self):
        # below 1e-14 the full circle of area |v| / 4, as before
        rho = math.sqrt(1.0 / (4 * math.pi))
        assert cc_dist(IDENTITY, HeisPoint(1e-15, 1.0)) == rho * (2 * math.pi)

    def test_interpolation_in_the_old_gap(self):
        b = HeisPoint(1e-12, 1.0)
        L = cc_dist(IDENTITY, b)
        mid = cc_point_toward(IDENTITY, b, L / 2)
        assert cc_dist(IDENTITY, mid) == pytest.approx(L / 2, rel=1e-3)


class TestGeodesicInterpolation:
    def test_contract(self):
        rnd = random.Random(37)
        worst = 0.0
        for a, b in zip(hpoints(rnd, 200), hpoints(rnd, 200)):
            d = cc_dist(a, b)
            lam = rnd.uniform(0, d)
            m = cc_point_toward(a, b, lam)
            worst = max(worst, abs(cc_dist(a, m) - lam),
                        abs(cc_dist(m, b) - (d - lam)))
        assert worst < 1e-6

    def test_beyond_segment_rejected(self):
        with pytest.raises(ValueError):
            cc_point_toward(IDENTITY, HeisPoint(1, 0), 2.0)


class TestSphereExtension:
    def test_horizontal_case_exact(self):
        got = extend_sphere_cc(IDENTITY, HeisPoint(0.99, 0), 1.0)
        assert got.zeta == pytest.approx(1.0)
        assert cc_dist(HeisPoint(0.99, 0), got) == pytest.approx(0.01, abs=1e-9)

    def test_modulus_value(self):
        # frozen from 1 - (1 + 0.01/pi)^(-1/2) evaluated independently
        assert heis_modulus(0.1) == pytest.approx(0.001587759937146105, abs=1e-15)

    def test_lands_on_dilation_orbit(self):
        x = HeisPoint(0.4 - 1.0j, 0.8)
        y = HeisPoint(1.2 + 0.3j, -0.5)
        out = extend_sphere_cc(x, y, 2.0)
        g = heis_mul(heis_inv(x), y)
        t = 2.0 / cc_dist(IDENTITY, g)
        orbit = heis_mul(x, dilate(g, t))
        assert out.zeta == pytest.approx(orbit.zeta) and out.v == pytest.approx(orbit.v)

    def test_contract_at_modulus_boundary(self):
        rnd = random.Random(38)
        for _ in range(1000):
            x = hpoints(rnd, 1)[0]
            r = rnd.uniform(0.3, 2.0)
            eps = rnd.uniform(0.05, 0.95)
            delta = heis_modulus(eps)
            raw = hpoints(rnd, 1)[0]
            g = heis_mul(heis_inv(x), raw)
            d0 = cc_dist(IDENTITY, g)
            if d0 < 1e-9:
                continue
            alpha = rnd.uniform((1 - delta) * r, r)
            y = heis_mul(x, dilate(g, alpha / d0))
            y2 = extend_sphere_cc(x, y, r)
            assert cc_dist(x, y2) == pytest.approx(r, abs=1e-9)
            assert cc_dist(y, y2) <= eps * r + 1e-9


class TestUncoverInstance:
    def test_antipodes(self):
        sp = heisenberg_space()
        c = HeisPoint(1 + 2j, 3)
        p, q = sp.antipodes(c, 0.7)
        assert cc_dist(c, p) == pytest.approx(0.7, abs=1e-12)
        assert cc_dist(c, q) == pytest.approx(0.7, abs=1e-12)
        assert cc_dist(p, q) == pytest.approx(1.4, abs=1e-12)

    def test_canonical_ball_contract(self):
        sp = heisenberg_space()
        y = HeisPoint(0.3 + 0.2j, 0.4)
        p = dilate(y, 1.0 / cc_dist(IDENTITY, y))
        K = canonical_ball(sp, IDENTITY, 1.0, 0.02, p, tol=1e-6)
        assert cc_dist(IDENTITY, K.center) == pytest.approx(0.51, abs=1e-6)
        assert cc_dist(K.center, p) == pytest.approx(K.radius, abs=1e-6)

    def test_small_uncover_run(self):
        sp = heisenberg_space()
        balls = [(IDENTITY, 1.0), (HeisPoint(2.5, 0), 1.0),
                 (HeisPoint(1.2 + 1.2j, 0.5), 0.4)]
        fam = BallFamily(sp, balls, 0.25)
        assert fam.validate_packing() == []
        w = uncover(fam, 0.015, tol=1e-6)
        for c, r in balls:
            assert cc_dist(w.output, c) >= 0.015 * r - 1e-6

    def test_shrink_time(self):
        assert complex_hyperbolic_shrink_time() == pytest.approx(4.9157, abs=1e-3)

    def test_shrink_time_closed_form(self):
        # the golden-section search ends where the two loads meet, at
        # eps + heis_modulus(eps) = 1, whose root is
        # eps*^2 = (pi/2)(sqrt(1 + 4/pi) - 1); then s0 = f(1 + eps*) with
        # f = max_scale_for_load, and t0 = -log(s0 / (2 c_max C)) with
        # c_max = 2^(-1/2) and C = sqrt(pi)
        eps = math.sqrt(math.pi / 2 * (math.sqrt(1 + 4 / math.pi) - 1))
        assert eps + heis_modulus(eps) == pytest.approx(1, abs=1e-15)
        load = 1 + eps
        s0 = (math.sqrt(4 * load + 1) - load - 1) / load
        t0 = -math.log(s0 / (2 * 2 ** -0.5 * CC_EQUIVALENCE))
        assert t0 == pytest.approx(4.915766891218324, abs=1e-14)
        assert complex_hyperbolic_shrink_time() == pytest.approx(t0, abs=1e-9)


def dyadic(bits, bound):
    return st.integers(-bound * 2 ** bits, bound * 2 ** bits).map(lambda n: n / 2 ** bits)


#: points on a grid coarse enough that the group law is exact in floats
dyadic_points = st.builds(lambda x, y, v: HeisPoint(complex(x, y), v),
                          dyadic(20, 4), dyadic(20, 4), dyadic(40, 16))


@st.composite
def displacements(draw):
    """Horizontal, generic and near-vertical displacements, the last
    with |dzeta| / sqrt|dv| from 1e-15 to 1e-3."""
    kind = draw(st.sampled_from(["horizontal", "generic", "near-vertical"]))
    phase = cmath.exp(1j * draw(st.floats(0, 2 * math.pi)))
    v = draw(st.floats(0.01, 4)) * draw(st.sampled_from([-1.0, 1.0]))
    if kind == "horizontal":
        return HeisPoint(draw(st.floats(0.01, 3)) * phase, 0.0)
    if kind == "generic":
        return HeisPoint(draw(st.floats(0.01, 3)) * phase, v)
    return HeisPoint(10 ** draw(st.floats(-15, -3)) * math.sqrt(abs(v)) * phase, v)


class TestCyganGauge:
    """The bracket the uncovering filters trust: the space's gauge is the
    Cygan metric, and computed cc_dist lies within its widened bounds."""

    def test_space_gauge(self):
        gauge = heisenberg_space().gauge
        assert gauge.C is CC_EQUIVALENCE
        pts = [IDENTITY, HeisPoint(1 + 2j, -3), HeisPoint(-0.5j, 7)]
        cols = gauge.columns(pts)
        assert cols.shape == (3, 3)
        got = gauge.rho(cols[:, None], cols[None, :])
        want = [cygan_dist(a, b) for a in pts for b in pts]
        assert got.ravel().tolist() == pytest.approx(want, rel=1e-15)
        assert gauge.columns([]).shape == (0, 3)

    @settings(max_examples=200, deadline=None)
    @given(dyadic_points, dyadic_points, dyadic_points)
    def test_triangle_inequality(self, a, b, c):
        assert cygan_dist(a, c) <= (cygan_dist(a, b) + cygan_dist(b, c)) * (1 + 1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.builds(lambda x, y, v: HeisPoint(complex(x, y), v), finite, finite,
                     st.floats(-9, 9)),
           displacements(), st.integers(-30, 30))
    def test_cc_dist_within_the_widened_bracket(self, a, g, k):
        t = 2.0 ** k
        a, b = dilate(a, t), dilate(heis_mul(a, g), t)
        gauge = heisenberg_space().gauge
        rho = gauge.rho(gauge.columns([a]), gauge.columns([b]))[0]
        assert rho == pytest.approx(cygan_dist(a, b), rel=1e-14)
        d = cc_dist(a, b)
        assert rho * (1 - _DIST_REL_ERR) <= d <= CC_EQUIVALENCE * rho * (1 + _DIST_REL_ERR)
        lo, hi = gauge.bounds(gauge.columns([a]), gauge.columns([b]))
        assert lo[0] <= d <= hi[0]

    @pytest.mark.parametrize("ratio", [1e-15, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3])
    @pytest.mark.parametrize("k", [-20, 0, 20])
    def test_near_vertical_needs_the_widening(self, ratio, k):
        # d_CC / d_Cyg reaches sqrt(pi) here, and the computed cc_dist
        # overshoots it by up to ~4e-5, within _DIST_REL_ERR
        t = 2.0 ** k
        b = dilate(HeisPoint(ratio, 1.0), t)
        ratio_to_cygan = cc_dist(IDENTITY, b) / cygan_dist(IDENTITY, b)
        assert CC_EQUIVALENCE * (1 - 1e-3) <= ratio_to_cygan <= CC_EQUIVALENCE * (1 + _DIST_REL_ERR)

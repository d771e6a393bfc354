import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horoshadow.heisenberg import (
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
from horoshadow.uncover import BallFamily, canonical_ball, uncover

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

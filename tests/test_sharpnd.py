import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horoshadow.halfspace import TangentHoroball
from horoshadow.numeric import SHARP_SCALE
from horoshadow.packings import HoroballFamily, random_disjoint
from horoshadow.sharp2d import step_2d, solve_2d
from horoshadow.sharpnd import (
    maximal_annulus_ball,
    solve_hnr,
    step_hnr,
)


def dense_valid_family(dim=3):
    """Hand-built crowded family so the solver actually takes steps."""
    hs = [TangentHoroball((0.0, 0.0), 0.5), TangentHoroball((1.0, 0.0), 0.5)]
    hs.append(TangentHoroball((0.5, 0.5), 0.25))    # 4 r r' = 0.5 = d^2
    hs.append(TangentHoroball((0.5, -0.5), 0.25))
    hs.append(TangentHoroball((0.25, 0.25), 0.0625))
    return HoroballFamily(dim, hs)


class TestMaximalAnnulusBall:
    def test_formula(self):
        K = maximal_annulus_ball(TangentHoroball((0.0, 0.0), 1.0), 0.5, (1.0, 0.0))
        assert K.center == pytest.approx((0.75, 0.0))
        assert K.radius == 0.25

    def test_degenerate_scale_limit(self):
        K = maximal_annulus_ball(TangentHoroball((0.0, 0.0), 1.0), 1e-12, (0.0, 1.0))
        assert K.center == pytest.approx((0.0, 0.5))
        assert K.radius == pytest.approx(0.5)

    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.05, max_value=3.0),
           st.floats(min_value=0.0, max_value=2 * math.pi))
    @settings(max_examples=80)
    def test_contained_in_annulus(self, s, r, ang):
        u = (math.cos(ang), math.sin(ang))
        K = maximal_annulus_ball(TangentHoroball((0.3, -0.2), r), s, u)
        d = math.hypot(K.center[0] - 0.3, K.center[1] + 0.2)
        assert d - K.radius == pytest.approx(s * r, rel=1e-9)
        assert d + K.radius == pytest.approx(r, rel=1e-9)

    def test_direction_must_be_unit(self):
        with pytest.raises(ValueError):
            maximal_annulus_ball(TangentHoroball((0.0, 0.0), 1.0), 0.5, (2.0, 0.0))


class TestStepHnr:
    def test_far_ball_gives_none(self):
        parent = TangentHoroball((0.0, 0.0), 1.0)
        K = maximal_annulus_ball(parent, 0.4, (1.0, 0.0))
        assert step_hnr(parent, K, TangentHoroball((9.0, 0.0), 0.5), 0.4) is None

    def test_collinear_agrees_with_interval_step(self):
        # everything on the x axis: the ball step must reproduce the
        # interval step under the interval <-> ball bijection
        parent = TangentHoroball((0.0, 0.0), 1.0)
        s = 0.4
        K = maximal_annulus_ball(parent, s, (1.0, 0.0), 0)
        other = TangentHoroball((0.62, 0.0), 0.05)
        got = step_hnr(parent, K, other, s, index=1)
        lo, hi = step_2d((s, 1.0), 0.62, 0.05, s, index=1)
        assert got.center[0] == pytest.approx((lo + hi) / 2, abs=1e-12)
        assert got.center[1] == pytest.approx(0.0, abs=1e-12)
        assert got.radius == pytest.approx((hi - lo) / 2, abs=1e-12)

    def test_rotation_instance_contained(self):
        parent = TangentHoroball((0.0, 0.0), 1.0)
        s = 0.4
        K = maximal_annulus_ball(parent, s, (1.0, 0.0), 0)
        other = TangentHoroball((0.6, 0.28), 0.04)
        got = step_hnr(parent, K, other, s, index=1)
        assert got is not None
        # containment and the annulus-ball invariant for the new horoball
        d_in_K = math.hypot(got.center[0] - K.center[0], got.center[1] - K.center[1])
        assert d_in_K + got.radius <= K.radius + 1e-9
        d_new = math.hypot(got.center[0] - 0.6, got.center[1] - 0.28)
        assert d_new == pytest.approx(0.04 * (1 + s) / 2, abs=1e-9)
        assert got.radius == pytest.approx(0.04 * (1 - s) / 2, abs=1e-9)

    def test_construction_stays_in_plane(self):
        # in the 3-d boundary the new center stays in the plane spanned by
        # the two relevant directions through K.center
        parent = TangentHoroball((0.0, 0.0, 0.0), 1.0)
        s = 0.3
        K = maximal_annulus_ball(parent, s, (0.0, 1.0, 0.0), 0)
        other = TangentHoroball((0.1, 0.7, 0.2), 0.03)
        got = step_hnr(parent, K, other, s, index=1)
        assert got is not None
        y = np.asarray(K.center)
        u = y - np.array([0.0, 0.0, 0.0])
        w = np.asarray(other.base) - y
        normal = np.cross(u, w)
        normal /= np.linalg.norm(normal)
        off_plane = abs(float(np.dot(np.asarray(got.center) - y, normal)))
        assert off_plane < 1e-12


class TestSolveHnr:
    def test_random_family_certificate(self):
        fam = random_disjoint(50, 3, 7)
        sol = solve_hnr(fam, 0.4)
        for _, h in fam.tangent_items():
            gap = math.hypot(sol.endpoint[0] - h.base[0], sol.endpoint[1] - h.base[1])
            assert gap >= 0.4 * h.radius - 1e-9

    def test_dense_family_takes_steps(self):
        fam = dense_valid_family()
        from horoshadow.packings import validate_disjoint
        assert validate_disjoint(fam).ok
        sol = solve_hnr(fam, 0.6, direction=(math.cos(0.9), math.sin(0.9)))
        assert len(sol.witness) >= 2
        for _, h in fam.tangent_items():
            gap = math.hypot(sol.endpoint[0] - h.base[0], sol.endpoint[1] - h.base[1])
            assert gap >= 0.6 * h.radius - 1e-9

    def test_single_horoball(self):
        fam = HoroballFamily(3, [TangentHoroball((1.0, 2.0), 0.5)])
        sol = solve_hnr(fam, 0.4, direction=(0.0, 1.0))
        gap = math.hypot(sol.endpoint[0] - 1.0, sol.endpoint[1] - 2.0)
        assert 0.4 * 0.5 <= gap <= 0.5 + 1e-12

    def test_antipodal_directions_separate(self):
        fam = random_disjoint(30, 3, 11)
        a = solve_hnr(fam, 0.4, direction=(1.0, 0.0)).endpoint
        b = solve_hnr(fam, 0.4, direction=(-1.0, 0.0)).endpoint
        r0 = max(float(h.radius) for _, h in fam.tangent_items())
        assert math.hypot(a[0] - b[0], a[1] - b[1]) >= 0.4 * r0 - 1e-9

    def test_collinear_embedding_matches_solve_2d(self):
        fam1 = random_disjoint(30, 2, 3)
        balls3 = [TangentHoroball((float(h.base[0]), 0.0), float(h.radius))
                  for h in fam1.horoballs]
        fam3 = HoroballFamily(3, balls3)
        (a,) = solve_2d(fam1, 0.4, direction=(1,)).endpoint
        b = solve_hnr(fam3, 0.4, direction=(1.0, 0.0)).endpoint
        assert abs(a - b[0]) < 1e-9
        assert abs(b[1]) < 1e-12

    def test_rotation_equivariance(self):
        fam = dense_valid_family()
        base_dir = (math.cos(0.9), math.sin(0.9))
        sol = solve_hnr(fam, 0.5, direction=base_dir)
        rng = np.random.default_rng(1)
        for _ in range(20):
            th = rng.uniform(0, 2 * np.pi)
            R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
            rot = HoroballFamily(3, [
                TangentHoroball(tuple(map(float, R @ np.asarray(h.base))), h.radius)
                for h in fam.horoballs])
            solr = solve_hnr(rot, 0.5, direction=tuple(map(float, R @ base_dir)))
            diff = np.linalg.norm(R @ np.asarray(sol.endpoint) - np.asarray(solr.endpoint))
            assert diff < 1e-9

    def test_witness_chain_invariants(self):
        fam = dense_valid_family()
        s = 0.6
        sol = solve_hnr(fam, s, direction=(math.cos(0.9), math.sin(0.9)))
        for a, b in zip(sol.witness, sol.witness[1:]):
            d = math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])
            assert d + b.radius <= a.radius + 1e-9
            h = fam.horoballs[b.index]
            assert b.radius == pytest.approx(float(h.radius) * (1 - s) / 2, abs=1e-12)

    def test_scale_above_sharp_rejected(self):
        fam = random_disjoint(5, 3, 1)
        with pytest.raises(ValueError):
            solve_hnr(fam, SHARP_SCALE + 1e-6)

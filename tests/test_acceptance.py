"""Acceptance gate: one test per criterion, each printing a pass/fail
line and enforcing the stated tolerance and runtime budget.

Run with `pytest -s tests/test_acceptance.py` to see the summary lines.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from horoshadow.halfspace import (
    ArcGeodesic,
    AtInfinityHoroball,
    Point,
    TangentHoroball,
    penetration_depth,
    point_to_horoball_dist,
    vnorm2,
    vsub,
)
from horoshadow.heisenberg import (
    IDENTITY,
    HeisPoint,
    cc_dist,
    complex_hyperbolic_shrink_time,
    cygan_dist,
    dilate,
    extend_sphere_cc,
    heis_inv,
    heis_modulus,
    heis_mul,
)
from horoshadow.numeric import SHARP_SCALE
from horoshadow.packings import (
    HoroballFamily,
    extremal,
    farey,
    geometric,
    random_disjoint,
)
from horoshadow.rays import (
    CONE_CONSTANT,
    TRIANGLE_CONSTANT,
    biinfinite_line,
    ray_from_point,
)
from horoshadow.sharp2d import (
    dioph_solutions,
    scaled_shadow_residual,
    sharp_shrink_time,
    solve_2d,
)
from horoshadow.sharpnd import solve_hnr
from horoshadow.trees import (
    covering_family,
    greedy_ray,
    random_tree,
    random_tree_horoballs,
    three_regular_tree,
)
from horoshadow.uncover import BallFamily, euclidean_space, safe_scale, uncover
from test_halfspace import point_at

GOLDEN = (1 + math.sqrt(5)) / 2


def _report(num, ok, detail, elapsed, budget):
    line = (f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.2f}s / {budget:.0f}s budget) {detail}")
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_01_sharp_constant_and_extremal_tangency():
    t0 = time.perf_counter()
    got = sharp_shrink_time(1)
    want = -math.log(4 * math.sqrt(2) - 5)
    ok = abs(got - want) <= 1e-12
    # The tangency scale lives in Z[sqrt(2)]: with s = -5 + 4 sqrt(2) the
    # child offset factor is (1+s)/2 = 2 sqrt(2) - 2 and the child radius
    # factor is (1-s)/2 = 3 - 2 sqrt(2), so u^2 - 4 r r' can be evaluated
    # without any rounding.  (In floats the deep generations cancel
    # catastrophically: positions are O(1), gaps are O(0.17^12).)
    ONE, SQ2 = (1, 0), (0, 1)

    def mul(p, q):
        return (p[0] * q[0] + 2 * p[1] * q[1], p[0] * q[1] + p[1] * q[0])

    def sub(p, q):
        return (p[0] - q[0], p[1] - q[1])

    # 60-digit rational sqrt(2): converting a + b sqrt(2) with the huge
    # integer coefficients of deep generations through float sqrt(2)
    # would cancel catastrophically
    SQRT2 = Fraction(math.isqrt(2 * 10 ** 120), 10 ** 60)

    def drift(value, p):
        return abs(Fraction(value) - (p[0] + p[1] * SQRT2))

    off = (-2, 2)     # (1+s)/2
    rfac = (3, -2)    # (1-s)/2
    level = [((0, 0), ONE)]
    pairs = 0
    exact_ok = True
    float_worst = 0.0
    fam = extremal(12)
    flat = iter(range(1, len(fam.horoballs)))
    for gen in range(12):
        nxt = []
        for x, r in level:
            step = mul(r, off)
            rc = mul(r, rfac)
            for sgn in (-1, 1):
                xc = (x[0] + sgn * step[0], x[1] + sgn * step[1])
                nxt.append((xc, rc))
                # u^2 - 4 r r' with u = |x - xc| = r * off
                defect = sub(mul(step, step), mul((4, 0), mul(r, rc)))
                exact_ok &= defect == (0, 0)
                pairs += 1
                k = next(flat)
                hf = fam.horoballs[k]
                float_worst = max(float_worst,
                                  drift(hf.base[0], xc), drift(hf.radius, rc))
        level = nxt
    ok &= exact_ok and pairs == 2 ** 13 - 2
    ok &= float_worst <= 1e-12  # generator agrees with the exact tree
    _report(1, ok,
            f"t1(1)={got:.12f} vs -log(4*sqrt(2)-5); {pairs} parent-child "
            f"pairs exactly tangent in Q[sqrt(2)]; float drift {float(float_worst):.1e}",
            time.perf_counter() - t0, 1.0)


def test_criterion_02_generic_constant_and_farey_500():
    t0 = time.perf_counter()
    s0 = safe_scale(0.25, has_lines=True)
    ok = abs(s0 - (math.sqrt(5) - 2)) <= 1e-12
    fam = farey(500, (0, 1))
    balls = [((float(h.base[0]),), float(h.radius)) for h in fam.horoballs]
    bf = BallFamily(euclidean_space(1), balls)
    w = uncover(bf, 0.23)
    x = w.output[0]
    misses = sum(1 for (c,), r in balls if abs(x - c) < 0.23 * r - 1e-9)
    ok &= misses == 0
    _report(2, ok,
            f"s0(1/4)={s0:.12f}; farey(500) avoidance point {x:.6f} "
            f"checked against {len(balls)} shadows",
            time.perf_counter() - t0, 5.0)


def test_criterion_03_shrink_times():
    t0 = time.perf_counter()
    heis = complex_hyperbolic_shrink_time()
    real = -math.log(safe_scale(0.25, has_lines=True))
    ok = abs(heis - 4.9157) <= 1e-3
    ok &= abs(real - (-math.log(math.sqrt(5) - 2))) <= 1e-6
    _report(3, ok, f"t0(H^2_C)={heis:.4f}; t0(H^n_R)={real:.6f}",
            time.perf_counter() - t0, 1.0)


def test_criterion_04_geometric_negative_control():
    t0 = time.perf_counter()
    fam = geometric(-8, 8)
    hs = fam.horoballs
    ok = True
    for a, b in zip(hs, hs[1:]):
        # exact rational identity
        ok &= vnorm2(vsub(a.base, b.base)) == 4 * a.radius * b.radius
    for i in range(len(hs)):
        for j in range(i + 1, len(hs)):
            d2 = (hs[i].base[0] - hs[j].base[0]) ** 2
            ok &= 4 * hs[i].radius * hs[j].radius <= d2
    # the packing satisfies the quadratic condition with unbounded radii,
    # and shrinking by time 0.1 (scale e^-0.1) still covers a huge window
    scale = math.exp(-0.1)
    centers = [float(h.base[0]) for h in hs]
    radii = [float(h.radius) for h in hs]
    misses = 0
    for k in range(10_000):
        x = -100 + 200 * k / 9999
        if not any(abs(x - c) <= scale * r for c, r in zip(centers, radii)):
            misses += 1
    ok &= misses == 0
    # the covering threshold is the scale 8/15: below it gaps open up
    uncovered_below = not all(
        any(abs(x - c) <= 0.5 * r for c, r in zip(centers, radii))
        for x in (-1.0, 1.0))
    ok &= uncovered_below
    _report(4, ok,
            f"tangency chain exact; {misses} misses on [-100,100] at "
            f"shrink time 0.1 (scale {scale:.4f})",
            time.perf_counter() - t0, 1.0)


def test_criterion_05_diophantine_regimes():
    t0 = time.perf_counter()
    empty = dioph_solutions(GOLDEN, 0.27, 100_000)
    many = dioph_solutions(GOLDEN, 0.10, 100_000)
    ok = empty == [] and len(many) >= 20
    _report(5, ok,
            f"golden ratio: 0 solutions at t=0.27, {len(many)} at t=0.10",
            time.perf_counter() - t0, 10.0)


def test_criterion_06_sharp_solvers():
    t0 = time.perf_counter()
    fam = extremal(12)
    sol = solve_2d(fam, SHARP_SCALE - 1e-9)  # certifies internally
    ok = len(sol.witness) == 13
    s_plus = SHARP_SCALE + 1e-6
    root = fam.horoballs[0]
    residual = scaled_shadow_residual(
        fam, s_plus, (s_plus * float(root.radius), float(root.radius)))
    max_gap = max((b - a) for a, b in residual)
    ok &= max_gap < 1e-3
    fam3 = random_disjoint(50, 3, 7)
    base = solve_hnr(fam3, 0.4)
    rng = np.random.default_rng(7)
    worst_rot = 0.0
    for _ in range(20):
        th = rng.uniform(0, 2 * np.pi)
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        rot = HoroballFamily(3, [
            TangentHoroball(tuple(map(float, R @ np.asarray(h.base))), h.radius)
            for h in fam3.horoballs])
        solr = solve_hnr(rot, 0.4, direction=tuple(map(float, R @ [1.0, 0.0])))
        worst_rot = max(worst_rot, float(np.linalg.norm(
            R @ np.asarray(base.endpoint) - np.asarray(solr.endpoint))))
    ok &= worst_rot <= 1e-9
    _report(6, ok,
            f"extremal endpoint {sol.endpoint[0]:.9f}; residual {max_gap:.2e}; "
            f"rotation deviation {worst_rot:.2e}",
            time.perf_counter() - t0, 5.0)


def test_criterion_07_ray_and_line_constructions():
    t0 = time.perf_counter()
    fam = farey(100, (0, 1), include_infinity=True)
    t1 = sharp_shrink_time(1)
    ray = ray_from_point(fam, Point(0.5, 0.9), t1 + CONE_CONSTANT + 0.01)
    ok = ray.report.ok and ray.nearest_clear
    ok &= all(d <= 1e-9 for _, d in ray.report.max_depths)
    line = biinfinite_line(fam, t1 + TRIANGLE_CONSTANT + 0.01)
    ok &= line.report.ok
    ok &= all(d <= 1e-9 for _, d in line.report.max_depths)
    ref = fam.horoballs[-1]
    assert isinstance(ref, AtInfinityHoroball)
    depth_ref = penetration_depth(line.line, ref)
    ok &= depth_ref <= 0
    _report(7, ok,
            f"ray margin {ray.report.margin:.3f}; line margin "
            f"{line.report.margin:.3f}; arc depth into reference {depth_ref:.3f}",
            time.perf_counter() - t0, 5.0)


def test_criterion_08_heisenberg_metric_contracts():
    t0 = time.perf_counter()
    rnd = random.Random(8)

    def rp():
        return HeisPoint(complex(rnd.uniform(-2, 2), rnd.uniform(-2, 2)),
                         rnd.uniform(-4, 4))

    ok = True
    worst_dil = 0.0
    for _ in range(1000):
        a, b = rp(), rp()
        dc = cygan_dist(a, b)
        dcc = cc_dist(a, b)
        ok &= dc - 1e-9 <= dcc <= math.sqrt(math.pi) * dc + 1e-9
        t = rnd.uniform(0.2, 3.0)
        rel = abs(cc_dist(dilate(a, t), dilate(b, t))
                  - t * dcc) / max(t * dcc, 1e-12)
        worst_dil = max(worst_dil, rel)
    ok &= worst_dil <= 2e-3
    worst_ext = 0.0
    for _ in range(1000):
        x, raw = rp(), rp()
        r = rnd.uniform(0.3, 2.0)
        eps = rnd.uniform(0.05, 0.95)
        delta = heis_modulus(eps)
        g = heis_mul(heis_inv(x), raw)
        d0 = cc_dist(IDENTITY, g)
        if d0 < 1e-9:
            continue
        alpha = rnd.uniform((1 - delta) * r, r)
        y = heis_mul(x, dilate(g, alpha / d0))
        y2 = extend_sphere_cc(x, y, r)
        ok &= abs(cc_dist(x, y2) - r) <= 1e-6
        worst_ext = max(worst_ext, cc_dist(y, y2) - eps * r)
    ok &= worst_ext <= 1e-9
    _report(8, ok,
            f"sandwich held on 1000 pairs; dilation rel err {worst_dil:.2e}; "
            f"extension slack {worst_ext:.2e}",
            time.perf_counter() - t0, 30.0)


def test_criterion_09_tree_rays():
    t0 = time.perf_counter()
    tree = three_regular_tree(10)
    fam = covering_family(tree)
    res = greedy_ray(tree, fam, tree.root, validate=False)
    ok = res.max_depth <= 1.0 + 1e-9
    ok &= res.path.vertices != res.two.vertices
    worst = -math.inf
    for seed in range(100):
        rt = random_tree(seed, 40)
        balls = random_tree_horoballs(rt, 4, seed + 1000)
        if not balls:
            continue
        rr = greedy_ray(rt, balls, rt.root)
        worst = max(worst, rr.max_depth - rt.ell_max)
    ok &= worst <= 1e-9
    _report(9, ok,
            f"covering config depth {res.max_depth:.3f} (bound 1); "
            f"100 random instances, worst excess over edge length {worst:.3f}",
            time.perf_counter() - t0, 5.0)


def test_criterion_10_cross_module_oracles():
    t0 = time.perf_counter()
    fam1 = random_disjoint(30, 2, 3)
    balls3 = [TangentHoroball((float(h.base[0]), 0.0), float(h.radius))
              for h in fam1.horoballs]
    fam3 = HoroballFamily(3, balls3)
    (a,) = solve_2d(fam1, 0.4, direction=(1,)).endpoint
    b = solve_hnr(fam3, 0.4, direction=(1.0, 0.0)).endpoint
    ok = abs(a - b[0]) <= 1e-9 and abs(b[1]) <= 1e-9
    rnd = random.Random(10)
    worst = 0.0
    for _ in range(100):
        lo = rnd.uniform(-1.0, 0.5)
        hi = lo + rnd.uniform(0.2, 0.5)
        g = ArcGeodesic(rnd.uniform(-2, -0.2), rnd.uniform(0.2, 2), (lo, hi))
        h = TangentHoroball(rnd.uniform(-1, 1), rnd.uniform(0.05, 0.8))
        closed = penetration_depth(g, h)
        sampled = max(
            -point_to_horoball_dist(point_at(g, lo + (hi - lo) * k / 1000), h)
            for k in range(1001))
        worst = max(worst, abs(closed - sampled))
    ok &= worst <= 1e-6
    _report(10, ok,
            f"collinear endpoints agree to {abs(a - b[0]):.2e}; "
            f"sampling deviation {worst:.2e}",
            time.perf_counter() - t0, 10.0)

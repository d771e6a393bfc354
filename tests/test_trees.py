import math
import random

import pytest

from horoshadow.trees import (
    MetricTree,
    TreeHoroball,
    TreePoint,
    covering_family,
    greedy_ray,
    max_ball_depth,
    random_tree,
    random_tree_horoballs,
    three_regular_tree,
    tree_busemann,
    validate_tree_horoballs,
)


def small_tree():
    # root 0 with three legs; two legs branch once more
    edges = [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0),
             (1, 4, 1.0), (1, 5, 1.0),
             (2, 6, 1.0), (2, 7, 1.0)]
    return MetricTree(edges, stubs=[3, 4, 5, 6, 7], root=0)


class TestStructure:
    def test_rejects_degree_two(self):
        with pytest.raises(ValueError):
            MetricTree([(0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0)],
                       stubs=[2, 3, 4])

    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            MetricTree([(0, 1, 1), (1, 2, 1), (2, 0, 1)], stubs=[])

    def test_rejects_undeclared_leaf(self):
        with pytest.raises(ValueError):
            MetricTree([(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)], stubs=[1, 2])

    def test_three_regular_counts(self):
        t = three_regular_tree(4)
        assert len(t.stubs) == 3 * 2 ** 3
        assert len(t.adj) == 1 + 3 * (2 ** 4 - 1)


class TestBusemann:
    def test_along_the_ray(self):
        t = small_tree()
        # the ray toward stub 4 passes 0 -> 1 -> 4
        assert tree_busemann(t, 4, 0) == 0
        assert tree_busemann(t, 4, 1) == 1
        assert tree_busemann(t, 4, 4) == 2

    def test_off_ray_vertex(self):
        t = small_tree()
        # vertex 5 meets the ray to 4 at vertex 1 (depth 1), one edge away
        assert tree_busemann(t, 4, 5) == 0
        # vertex 6 meets it at the root, two edges away
        assert tree_busemann(t, 4, 6) == -2

    def test_midpoint_interpolation(self):
        t = small_tree()
        assert tree_busemann(t, 4, TreePoint(0, 1, 0.25)) == pytest.approx(0.25)
        assert tree_busemann(t, 4, TreePoint(2, 6, 0.5)) == pytest.approx(-1.5)

    def test_one_lipschitz_along_paths(self):
        t = three_regular_tree(5)
        stub = sorted(t.stubs)[0]
        rnd = random.Random(1)
        verts = sorted(t.adj)
        for _ in range(200):
            u, v = rnd.sample(verts, 2)
            gap = abs(tree_busemann(t, stub, u) - tree_busemann(t, stub, v))
            d = abs(t._depth[u] - t._depth[v])  # lower bound on distance
            assert gap <= 2 * max(t._depth[u], t._depth[v]) + 1e-9
            assert gap >= 0

    def test_unknown_stub(self):
        with pytest.raises(ValueError):
            tree_busemann(small_tree(), 99, 0)


class TestValidation:
    def test_disjoint_iff_level_sum_reaches_meet(self):
        t = small_tree()
        # rays to stubs 4 and 5 split at vertex 1 (depth 1): the open
        # horoballs are disjoint iff l + l' >= 2
        assert validate_tree_horoballs(
            t, [TreeHoroball(4, 1.0), TreeHoroball(5, 1.0)]) == []
        assert validate_tree_horoballs(
            t, [TreeHoroball(4, 0.9), TreeHoroball(5, 0.9)]) == [(0, 1)]

    def test_same_end_rejected(self):
        t = small_tree()
        assert validate_tree_horoballs(
            t, [TreeHoroball(4, 1.0), TreeHoroball(4, 2.0)]) == [(0, 1)]


class TestCovering:
    def test_covers_and_stays_disjoint(self):
        t = three_regular_tree(7)
        fam = covering_family(t)
        assert validate_tree_horoballs(t, fam) == []
        # closures cover every vertex and every edge
        for v in t.adj:
            depth, _ = max_ball_depth(t, fam, v)
            assert depth >= -1e-9
        for u, nbrs in t.adj.items():
            for v, length in nbrs.items():
                if u > v:
                    continue
                # union of per-ball coverage intervals spans the edge
                spans = []
                for b in fam:
                    bu = tree_busemann(t, b.end, u) - b.level
                    bv = tree_busemann(t, b.end, v) - b.level
                    if bu >= -1e-12 and bv >= -1e-12:
                        spans.append((0.0, length))
                    elif bu >= -1e-12:
                        spans.append((0.0, length * bu / (bu - bv)))
                    elif bv >= -1e-12:
                        spans.append((length * -bu / (bv - bu), length))
                spans.sort()
                reach = 0.0
                for a, b2 in spans:
                    assert a <= reach + 1e-9
                    reach = max(reach, b2)
                assert reach >= length - 1e-9

    def test_root_on_boundary(self):
        t = three_regular_tree(6)
        fam = covering_family(t)
        depth, _ = max_ball_depth(t, fam, t.root)
        assert depth == pytest.approx(0, abs=1e-12)


class TestGreedyRay:
    def test_covering_configuration_sharp_bound(self):
        t = three_regular_tree(10)
        fam = covering_family(t)
        res = greedy_ray(t, fam, 0, validate=False)
        assert res.max_depth <= 1.0 + 1e-9
        assert res.path.vertices != res.two.vertices
        # both walks are geodesics: no immediate backtracking
        for walk in (res.path, res.two):
            for a, b, c in zip(walk.vertices, walk.vertices[1:], walk.vertices[2:]):
                assert a != c
            assert walk.vertices[-1] in t.stubs

    def test_single_distant_horoball(self):
        t = three_regular_tree(5)
        ball = TreeHoroball(sorted(t.stubs)[-1], 2.0)
        res = greedy_ray(t, [ball], 0)
        assert res.max_depth <= 0

    def test_start_inside_rejected(self):
        t = small_tree()
        with pytest.raises(ValueError):
            greedy_ray(t, [TreeHoroball(4, 0.5)], 1)

    def test_overlapping_family_rejected(self):
        t = small_tree()
        with pytest.raises(ValueError):
            greedy_ray(t, [TreeHoroball(4, 0.4), TreeHoroball(5, 0.4)], 0)

    def test_exit_through_ball_end_fails_loudly(self):
        t = small_tree()
        # the default walk from the root runs 0 -> 1 -> 4; a horoball at
        # stub 4 whose horosphere sits just inside the last edge is
        # entered with no room to duck out, so the walk must refuse to
        # fabricate structure past the stub
        with pytest.raises(RuntimeError):
            greedy_ray(t, [TreeHoroball(4, 1.9)], 0)

    def test_hundred_random_instances(self):
        worst = -math.inf
        for seed in range(100):
            tree = random_tree(seed, 40)
            balls = random_tree_horoballs(tree, 4, seed + 1000)
            if not balls:
                continue
            res = greedy_ray(tree, balls, 0)
            worst = max(worst, res.max_depth - tree.ell_max)
        assert worst <= 1e-9

    def test_walk_depth_bound_is_edge_length(self):
        # max depth never exceeds the longest edge, and with the covering
        # family it is attained exactly
        t = three_regular_tree(8)
        fam = covering_family(t)
        res = greedy_ray(t, fam, 0, validate=False)
        assert res.max_depth == pytest.approx(1.0, abs=1e-12)

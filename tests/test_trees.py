import functools
import math
import random
from typing import Optional, Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horoshadow.trees import (
    MetricTree,
    TreeFamily,
    TreeHoroball,
    TreePoint,
    covering_family,
    _ball_columns,
    _busemann_at,
    greedy_ray,
    random_tree,
    random_tree_horoballs,
    three_regular_tree,
    validate_tree_horoballs,
)

# ---------------------------------------------------------------------------
# oracles: one-row forms of the tree kernel that no program code reads,
# kept here verbatim with the tests that pin them; test_tree_oracles
# compares the kernel with the old parent-chain walks through them


def tree_busemann(tree: MetricTree, end: int,
                  x: Union[TreePoint, int]) -> float:
    """Busemann function of the end behind `end`, normalized to vanish at
    the root: 2 depth(meet) - depth(x) at a vertex, and linear with slope
    +-1 along every edge, so mid-edge values interpolate the endpoint
    values exactly.  One row of _busemann_at."""
    import numpy as np
    if isinstance(x, int):
        x = TreePoint.at_vertex(x)
    return _busemann_at(tree, np.array([tree._stub_tin(end)]), x).item(0)


def max_ball_depth(tree: MetricTree, balls: list[TreeHoroball],
                   vertex: int) -> tuple[float, Optional[int]]:
    """Largest Busemann excess over all horoballs at a vertex, and the
    (first) index of a horoball strictly containing it (None when
    outside all): one column pass, as the walk made at every vertex
    before it kept its meets."""
    import numpy as np
    _, ends, levels = _ball_columns(tree, balls)
    if not len(levels):
        return float("-inf"), None
    excess = _busemann_at(tree, ends, TreePoint.at_vertex(vertex)) - levels
    who = int(np.argmax(excess))
    best = float(excess[who])
    return best, (who if best > 0 else None)


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

    def test_rejects_root_or_stub_off_the_tree(self):
        edges = [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]
        with pytest.raises(ValueError, match="root 7 is not a vertex"):
            MetricTree(edges, stubs=[1, 2, 3], root=7)
        with pytest.raises(ValueError, match="stub 777 is not a vertex"):
            MetricTree(edges, stubs=[1, 2, 3, 777], root=0)

    @pytest.mark.parametrize("length", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_edge_lengths_that_are_not_positive_and_finite(self, length):
        with pytest.raises(ValueError, match="edge lengths must be positive and finite"):
            MetricTree([(0, 1, length), (0, 2, 1.0), (0, 3, 1.0)], stubs=[1, 2, 3])

    @pytest.mark.parametrize("edge", [(0, 1, 5.0), (1, 0, 5.0), (1, 0, 1.0)])
    def test_rejects_a_repeated_edge(self, edge):
        # a later copy of an edge used to replace the length of the first
        u, v, _ = edge
        with pytest.raises(ValueError, match=rf"edge \({u}, {v}\) is given twice"):
            MetricTree([(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), edge], [1, 2, 3], root=0)

    def test_three_regular_counts(self):
        t = three_regular_tree(4)
        assert len(t.stubs) == 3 * 2 ** 3
        assert len(t.adj) == 1 + 3 * (2 ** 4 - 1)


class TestTreeFamily:
    BALLS = [TreeHoroball(4, 0.5), TreeHoroball(7, -1.25), TreeHoroball(9, 3.0)]

    def family(self):
        return TreeFamily([4, 7, 9], [0.5, -1.25, 3.0])

    def test_reads_as_the_list_of_its_members(self):
        fam, balls = self.family(), self.BALLS
        assert fam.end.dtype.name == "int64" and fam.level.dtype.name == "float64"
        assert len(fam) == len(balls)
        for i in range(-len(balls), len(balls)):
            assert fam[i] == balls[i]
            assert (type(fam[i].end), type(fam[i].level)) == (int, float)
        for i in (len(balls), -len(balls) - 1):
            with pytest.raises(IndexError):
                fam[i]
        for cut in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -1),
                    slice(0, 3, 2), slice(5, 9)):
            assert fam[cut] == balls[cut]
            assert repr(fam[cut]) == repr(balls[cut])
        assert list(fam) == balls
        assert fam == balls and balls == fam and fam == tuple(balls)
        assert fam != balls[:2] and fam != balls[::-1] and fam != 3
        assert repr(fam) == repr(balls)
        assert TreeFamily([], []) == [] and repr(TreeFamily([], [])) == "[]"

    def test_producers_return_families(self):
        tree = random_tree(3, 60)
        for fam in (covering_family(tree), random_tree_horoballs(tree, 4, 5)):
            assert isinstance(fam, TreeFamily)


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
            assert gap <= 2 * max(t.depth(u), t.depth(v)) + 1e-9
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


@functools.lru_cache(maxsize=None)
def dilatable(kind: str, n: int) -> tuple:
    """Edges, stubs and root of three_regular_tree(n) or random_tree(n, 60)."""
    t = three_regular_tree(n) if kind == "three-regular" else random_tree(n, 60)
    edges = [(u, v, l) for u, nbrs in t.adj.items() for v, l in nbrs.items() if u < v]
    return edges, t.stubs, t.root


def dilated(kind: str, n: int, k: int) -> MetricTree:
    """The tree with every edge length times 2**k, exact in floats."""
    edges, stubs, root = dilatable(kind, n)
    return MetricTree([(u, v, math.ldexp(l, k)) for u, v, l in edges], stubs, root)


def covered_everywhere(t, fam) -> bool:
    """Disjoint opens and closures holding every vertex, with the
    tolerances taken relative to the longest edge (validate_tree_horoballs
    takes its own so)."""
    if validate_tree_horoballs(t, fam):
        return False
    return all(max_ball_depth(t, fam, v)[0] >= -1e-9 * t.ell_max for v in t.adj)


def walks(t, fam):
    """(vertices and detours of both rays, max_depth) of greedy_ray from
    the root, or its error message."""
    try:
        res = greedy_ray(t, fam, t.root)
    except (ValueError, RuntimeError) as e:
        return str(e)
    rays = [(w.vertices, w.detours) for w in (res.path, res.two)]
    return rays, res.max_depth


class TestDilation:
    """The geometry is invariant under dilation: the covering family of
    the tree with every edge times 2**k has the same ends, with every
    level times exactly 2**k."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.tuples(st.just("three-regular"), st.integers(2, 9)),
                     st.tuples(st.just("random"), st.integers(0, 99))),
           st.integers(-60, 60))
    def test_levels_scale_and_cover(self, case, k):
        unit, scaled = dilated(*case, 0), dilated(*case, k)
        fam, fam_k = covering_family(unit), covering_family(scaled)
        assert [b.end for b in fam_k] == [b.end for b in fam]
        assert [b.level for b in fam_k] == [math.ldexp(b.level, k) for b in fam]
        assert scaled.ell_max == math.ldexp(unit.ell_max, k)
        assert covered_everywhere(scaled, fam_k)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.tuples(st.just("three-regular"), st.integers(2, 8)),
                     st.tuples(st.just("random"), st.integers(0, 39))),
           st.integers(-60, 60))
    def test_walks_scale(self, case, k):
        # an absolute start check and detour test skipped a detour on
        # three_regular_tree(4) at 2**-30 (max_depth 2 ell_max) and ran
        # out through a stub at 2**-40
        unit, scaled = dilated(*case, 0), dilated(*case, k)
        families = [covering_family(unit)]
        if case[0] == "random":
            families.append(random_tree_horoballs(unit, 4, case[1] + 1))
        for fam in families:
            fam_k = [TreeHoroball(b.end, math.ldexp(b.level, k)) for b in fam]
            got = [walks(t, f) for t, f in ((unit, fam), (scaled, fam_k))]
            if isinstance(got[0], str):
                assert got[1] == got[0]
                continue
            (rays, depth), (rays_k, depth_k) = got
            assert rays_k == rays
            assert depth_k == math.ldexp(depth, k)

    @pytest.mark.parametrize("k", [40, 60])
    def test_validation_at_the_default_tol_scales(self, k):
        # the tangencies l + l' = 2 meet of a covering family are off by a
        # rounding of the levels, which an absolute 1e-9 flagged on 44 of
        # these 100 dilated trees
        for seed in range(100):
            t = dilated("random", seed, k)
            assert validate_tree_horoballs(t, covering_family(t)) == []

    @pytest.mark.parametrize("depth", [4, 6, 8])
    def test_tiny_scale_covers_every_vertex(self, depth):
        # an absolute 1e-12 would count every edge of length 2**-40 as
        # covered and leave the root ball alone
        t = dilated("three-regular", depth, -40)
        fam = covering_family(t)
        assert len(fam) == len(covering_family(three_regular_tree(depth))) > 1
        assert covered_everywhere(t, fam)


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

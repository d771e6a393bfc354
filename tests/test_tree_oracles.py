"""Differential tests of the tree kernel against the per-ball loops it
replaced: covering_family, max_ball_depth, the greedy walk, greedy_ray
and validate_tree_horoballs as they were before the preorder index,
kept below as old_* (covering_family with its per-edge span helpers,
from before the level sweep), verbatim but for their tolerances, which
are relative to the longest edge as the kernel's are.  The kernel's
walk keeps one meet column per walk, and its validation reaches only
the balls that range minima show to have a partner; the old walk makes
a full pass over the balls at every vertex, and the old validation
tests every pair.  Their Busemann values come from the old parent-chain
walks (old_meet_depth and friends) over the parents and depths of their
own breadth-first search of tree.adj (old_rooted), not from the tree's
columns, so the two sides share no kernel code."""

import functools
import random
from collections import deque

import numpy as np
import pytest

from horoshadow.numeric import DEFAULT_TOL
from horoshadow.trees import (
    GreedyRayResult,
    MetricTree,
    TreeFamily,
    TreeHoroball,
    TreePoint,
    TreeWalk,
    covering_family,
    greedy_ray,
    random_tree,
    random_tree_horoballs,
    three_regular_tree,
    validate_tree_horoballs,
)
from horoshadow.trees import _ball_columns, _busemann_at, _meet_depths, _walk
from test_trees import max_ball_depth, tree_busemann

# ---------------------------------------------------------------------------
# the old parent-chain helpers (MetricTree methods before the index)


@functools.lru_cache(maxsize=16)
def old_rooted(tree):
    """Parent and depth of every vertex, by breadth-first search of
    tree.adj from the root in adjacency order (as MetricTree searched
    before its columns)."""
    parent, depth = {tree.root: None}, {tree.root: 0.0}
    queue = deque([tree.root])
    while queue:
        u = queue.popleft()
        for v, length in tree.adj[u].items():
            if v not in parent:
                parent[v], depth[v] = u, depth[u] + length
                queue.append(v)
    return parent, depth


def old_stub_ancestors(tree, stub):
    if stub not in tree.stubs:
        raise ValueError(f"unknown stub {stub}")
    parent, depth = old_rooted(tree)
    chain = {}
    v = stub
    while v is not None:
        chain[v] = depth[v]
        v = parent[v]
    return chain


def old_meet_depth(tree, vertex, stub):
    chain = old_stub_ancestors(tree, stub)
    parent, depth = old_rooted(tree)
    v = vertex
    while v is not None:
        if v in chain:
            return depth[v]
        v = parent[v]
    raise AssertionError("disconnected tree")


def old_busemann_vertex(tree, stub, vertex):
    return 2 * old_meet_depth(tree, vertex, stub) - old_rooted(tree)[1][vertex]


def old_next_toward(tree, u, stub):
    chain = old_stub_ancestors(tree, stub)
    parent, depth = old_rooted(tree)
    if u in chain:
        for v in tree.adj[u]:
            if v in chain and depth[v] > depth[u]:
                return v
        raise ValueError(f"{u} is the stub itself")
    return parent[u]


def old_tree_busemann(tree, end, x):
    if isinstance(x, int):
        return old_busemann_vertex(tree, end, x)
    bu = old_busemann_vertex(tree, end, x.u)
    if x.u == x.v or x.offset == 0:
        return bu
    bv = old_busemann_vertex(tree, end, x.v)
    length = tree.adj[x.u][x.v]
    return bu + (bv - bu) * (x.offset / length)


# ---------------------------------------------------------------------------
# the old kernel


def old_validate_tree_horoballs(tree, balls, tol=DEFAULT_TOL):
    bad = []
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            a, b = balls[i], balls[j]
            if a.end == b.end:
                bad.append((i, j))
                continue
            meet = old_meet_depth(tree, a.end, b.end)
            if a.level + b.level < 2 * meet - tol * tree.ell_max:
                bad.append((i, j))
    return bad


def old_walk(tree, balls, x0, overrides, tol):
    beta0 = [old_tree_busemann(tree, b.end, x0) for b in balls]
    max_depth = max((beta0[i] - balls[i].level for i in range(len(balls))),
                    default=float("-inf"))
    decisions = []
    detours = []

    def choose(candidates):
        idx = len(decisions)
        decisions.append((idx, candidates[1:]))
        forced = overrides.get(idx)
        if forced is not None:
            if forced not in candidates:
                raise ValueError("invalid forced choice")
            return forced
        return candidates[0]

    if x0.u == x0.v or x0.offset == 0:
        cur, prev = x0.u, None
    elif x0.offset == tree.adj[x0.u][x0.v]:
        cur, prev = x0.v, None
    else:
        cur = choose(sorted((x0.u, x0.v)))
        prev = x0.v if cur == x0.u else x0.u
    path = [cur]
    steps = 0
    limit = 2 * len(tree.adj) + 4
    while True:
        steps += 1
        if steps > limit:
            raise RuntimeError("walk exceeded the edge budget (cycle?)")
        depth_here, inside = old_max_ball_depth(tree, balls, cur)
        max_depth = max(max_depth, depth_here)
        if cur in tree.stubs:
            for b in balls:
                if b.end == cur:
                    raise RuntimeError(
                        f"walk exits through the end of a horoball at stub {cur}; "
                        f"progress: {path}")
            break
        candidates = [v for v in sorted(tree.adj[cur]) if v != prev]
        if inside is not None and depth_here > tol * tree.ell_max:
            away = old_next_toward(tree, cur, balls[inside].end)
            candidates = [v for v in candidates if v != away]
            detours.append(cur)
        if not candidates:
            raise RuntimeError(f"stuck at vertex {cur}")
        nxt = candidates[0] if len(candidates) == 1 else choose(candidates)
        prev, cur = cur, nxt
        path.append(cur)
    return TreeWalk(x0, path, max_depth, detours), decisions


def old_max_ball_depth(tree, balls, vertex):
    best, who = float("-inf"), None
    for i, b in enumerate(balls):
        d = old_busemann_vertex(tree, b.end, vertex) - b.level
        if d > best:
            best, who = d, i
    return best, (who if best > 0 else None)


def old_greedy_ray(tree, balls, x0, tol=DEFAULT_TOL, validate=True):
    if isinstance(x0, int):
        x0 = TreePoint.at_vertex(x0)
    if validate:
        bad = old_validate_tree_horoballs(tree, balls, tol)
        if bad:
            raise ValueError(f"open horoballs overlap at pairs {bad}")
    for b in balls:
        if old_tree_busemann(tree, b.end, x0) > b.level + tol * tree.ell_max:
            raise ValueError("start point lies inside an open horoball")
    first, decisions = old_walk(tree, balls, x0, {}, tol)
    second = None
    for idx, alternatives in decisions:
        for alt in alternatives:
            try:
                cand, _ = old_walk(tree, balls, x0, {idx: alt}, tol)
            except RuntimeError:
                continue
            if cand.vertices != first.vertices:
                second = cand
                break
        if second is not None:
            break
    if second is None:
        raise RuntimeError("no second ray within the truncation")
    return GreedyRayResult(first, second, max(first.max_depth, second.max_depth))


def old_leftmost_stub(tree, u, banned):
    """Descend from u away from `banned` toward smaller ids to a stub."""
    prev, cur = banned, u
    while cur not in tree.stubs:
        nxt = min(v for v in tree.adj[cur] if v != prev)
        prev, cur = cur, nxt
    return cur


def old_reach(spans):
    """Length of the covered prefix [0, reach] of the union of spans."""
    reach = 0.0
    for a, b in sorted(spans):
        if a > reach + 1e-12:
            break
        reach = max(reach, b)
    return reach


def old_covers_unit(spans, length):
    return old_reach(spans) >= length - 1e-12


def old_covering_family(tree):
    balls = [TreeHoroball(old_leftmost_stub(tree, tree.root, None), 0.0)]
    beta_cache = {}

    def beta(i, v):
        key = (i, v)
        if key not in beta_cache:
            beta_cache[key] = old_busemann_vertex(tree, balls[i].end, v)
        return beta_cache[key]

    live = {tree.root: [0]}
    queue = deque([tree.root])
    seen = {tree.root}
    while queue:
        u = queue.popleft()
        for v, length in tree.adj[u].items():
            if v in seen:
                continue
            seen.add(v)
            spans = []
            nxt_live = []
            for i in live[u]:
                bu, bv = beta(i, u) - balls[i].level, beta(i, v) - balls[i].level
                if bu >= 0 and bv >= 0:
                    spans.append((0.0, length))
                elif bu >= 0:
                    spans.append((0.0, length * bu / (bu - bv)))
                elif bv >= 0:
                    spans.append((length * (-bu) / (bv - bu), length))
                if bv >= 0:
                    nxt_live.append(i)
            covered = old_covers_unit(spans, length)
            if not covered:
                idx = len(balls)
                end = old_leftmost_stub(tree, v, u)
                level = old_busemann_vertex(tree, end, u) + old_reach(spans)
                balls.append(TreeHoroball(end, level))
                nxt_live.append(idx)
            live[v] = nxt_live
            if v not in tree.stubs:
                queue.append(v)
    return balls


# ---------------------------------------------------------------------------
# helpers


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except (ValueError, RuntimeError) as e:
        return "raised", type(e).__name__, str(e)


def bitwise(a, b):
    """Equal, with floats compared by their bits (repr)."""
    return repr(a) == repr(b)


def shrunk(balls, by):
    """The family with every level lowered by `by`, so that horoballs
    overlap and validation has pairs to report."""
    return [TreeHoroball(b.end, b.level - by) for b in balls]


def starts(tree, rng, count):
    """Non-root vertices and mid-edge points of the tree."""
    verts = sorted(v for v in tree.adj if v not in tree.stubs and v != tree.root)
    out = [TreePoint.at_vertex(v) for v in rng.sample(verts, min(count, len(verts)))]
    for _ in range(count):
        u = rng.choice(verts)
        v = rng.choice(sorted(tree.adj[u]))
        length = tree.adj[u][v]
        out.append(TreePoint(u, v, rng.choice([0.5 * length, rng.uniform(0, length), length])))
    return out


def caterpillar(spine, seed=0):
    """A chain of `spine` interior vertices, rooted at one end, with a
    stub hanging off each and a second stub at each end of the chain;
    edge lengths in (0.3, 1].  Its hop depth is about its vertex count
    over two, so a root path is as long as the tree allows."""
    rng = random.Random(seed)
    n = spine
    edges = [(k, k + 1, rng.uniform(0.3, 1.0)) for k in range(n - 1)]
    edges += [(k, n + k, rng.uniform(0.3, 1.0)) for k in range(n)]
    edges += [(0, 2 * n, rng.uniform(0.3, 1.0)), (n - 1, 2 * n + 1, rng.uniform(0.3, 1.0))]
    return MetricTree(edges, range(n, 2 * n + 2), root=0)


def reversed_adjacency(tree):
    """The same tree with every adjacency in the opposite order, so that a
    vertex meets its child of smallest id last: the end a leftmost descent
    reaches then comes right after the subtrees of its siblings."""
    edges = [(u, v, l) for u, nbrs in tree.adj.items() for v, l in nbrs.items() if u < v]
    return MetricTree(edges[::-1], tree.stubs, tree.root)


# ---------------------------------------------------------------------------
# the index itself


@pytest.mark.parametrize("tree", [three_regular_tree(5), random_tree(3, 60),
                                  reversed_adjacency(three_regular_tree(5)), caterpillar(80)],
                         ids=["three-regular-5", "random-3-60", "reversed-three-regular-5",
                              "caterpillar-80"])
def test_index_reads_the_parent_chains(tree):
    stubs = sorted(tree.stubs)
    tins = np.array([tree._stub_tin(stub) for stub in stubs])
    depth = old_rooted(tree)[1]
    # every vertex, the stubs too: at a stub the root path ends at the
    # end itself, so its own meet is the whole path
    assert tree.stubs < set(tree.adj)
    for v in sorted(tree.adj):
        assert tree.depth(v) == depth[v]
        assert _meet_depths(tree, v, tins).tolist() == [old_meet_depth(tree, v, s) for s in stubs]
        if v in tree.stubs:
            assert _meet_depths(tree, v, tins[stubs.index(v):][:1]).tolist() == [depth[v]]
        for stub in stubs:
            assert tree_busemann(tree, stub, v) == old_tree_busemann(tree, stub, v)
            assert outcome(tree.next_toward, v, stub) == outcome(old_next_toward, tree, v, stub)
    with pytest.raises(ValueError, match="unknown stub"):
        tree_busemann(tree, tree.root, tree.root)


@pytest.mark.parametrize("tree", [three_regular_tree(6), random_tree(5, 60), caterpillar(40)],
                         ids=["three-regular-6", "random-5-60", "caterpillar-40"])
def test_list_and_family_inputs_agree(tree):
    # a list of TreeHoroball is read into columns once; every verdict,
    # walk and error is the TreeFamily's, bit for bit
    cover = covering_family(tree)
    unknown = TreeFamily([min(tree.stubs), tree.root], [1.0, 1.0])
    families = [cover, random_tree_horoballs(tree, 4, 7),
                TreeFamily(cover.end, cover.level - 0.5), unknown]
    rng = random.Random(len(tree.adj))
    for fam in families:
        assert isinstance(fam, TreeFamily)
        as_list = list(fam)
        assert bitwise(outcome(validate_tree_horoballs, tree, as_list),
                       outcome(validate_tree_horoballs, tree, fam))
        for x0 in [tree.root] + starts(tree, rng, 2):
            for validate in (True, False):
                assert bitwise(outcome(greedy_ray, tree, as_list, x0, validate=validate),
                               outcome(greedy_ray, tree, fam, x0, validate=validate))
    assert outcome(greedy_ray, tree, list(unknown), tree.root) == \
        ("raised", "ValueError", f"unknown stub {tree.root}")


# ---------------------------------------------------------------------------
# three-regular trees and their covering families


def test_covering_family_of_the_deepest_three_regular_tree():
    tree = three_regular_tree(13)
    assert bitwise(covering_family(tree), old_covering_family(tree))


@pytest.mark.parametrize("depth", range(2, 13))
def test_covering_family_and_rays_of_three_regular_trees(depth):
    tree = three_regular_tree(depth)
    fam = covering_family(tree)
    assert bitwise(fam, old_covering_family(tree))
    # odd depths raise: both walks exit through the end of a horoball
    assert bitwise(outcome(greedy_ray, tree, fam, tree.root, validate=False),
                   outcome(old_greedy_ray, tree, fam, tree.root, validate=False))
    rng = random.Random(depth)
    for v in rng.sample(sorted(tree.adj), min(60, len(tree.adj))):
        assert bitwise(max_ball_depth(tree, fam, v), old_max_ball_depth(tree, fam, v))


@pytest.mark.parametrize("depth", range(2, 10))
@pytest.mark.parametrize("by", [0.0, 1e-12, 0.3, 0.5, 1.0, 3.0, -0.2])
def test_validation_of_three_regular_covering_families(depth, by):
    tree = three_regular_tree(depth)
    fam = shrunk(covering_family(tree), by)
    want = old_validate_tree_horoballs(tree, fam)
    assert validate_tree_horoballs(tree, fam) == want
    assert (want == []) == (by < DEFAULT_TOL)
    for tol in (0.0, -1e-9) if depth < 8 else ():
        assert validate_tree_horoballs(tree, fam, tol) == old_validate_tree_horoballs(tree, fam, tol)


@pytest.mark.parametrize("depth,validate", [(6, True), (8, True), (10, False)])
def test_rays_from_inner_starts(depth, validate):
    tree = three_regular_tree(depth)
    fam = covering_family(tree)
    for x0 in starts(tree, random.Random(depth), 4):
        assert bitwise(outcome(greedy_ray, tree, fam, x0, validate=validate),
                       outcome(old_greedy_ray, tree, fam, x0, validate=validate))


# ---------------------------------------------------------------------------
# random trees


@pytest.mark.parametrize("size", [40, 60])
def test_random_trees(size):
    for seed in range(100):
        tree = random_tree(seed, size)
        rng = random.Random(seed)
        families = [random_tree_horoballs(tree, 4, seed + 1000), covering_family(tree)]
        assert bitwise(families[1], old_covering_family(tree))
        families.append(shrunk(families[0], 0.4))
        for fam in families:
            assert validate_tree_horoballs(tree, fam) == old_validate_tree_horoballs(tree, fam)
            for x0 in [tree.root] + starts(tree, rng, 2):
                assert bitwise(outcome(greedy_ray, tree, fam, x0),
                               outcome(old_greedy_ray, tree, fam, x0))
                assert bitwise(outcome(greedy_ray, tree, fam, x0, validate=False),
                               outcome(old_greedy_ray, tree, fam, x0, validate=False))
            for v in rng.sample(sorted(tree.adj), 10):
                assert bitwise(max_ball_depth(tree, fam, v), old_max_ball_depth(tree, fam, v))


@pytest.mark.parametrize("tree", [reversed_adjacency(three_regular_tree(6)),
                                  reversed_adjacency(random_tree(7, 60))],
                         ids=["three-regular-6", "random-7-60"])
def test_reversed_adjacency(tree):
    fam = covering_family(tree)
    assert bitwise(fam, old_covering_family(tree))
    assert bitwise(outcome(greedy_ray, tree, fam, tree.root),
                   outcome(old_greedy_ray, tree, fam, tree.root))
    for v in sorted(tree.adj)[::5]:
        assert bitwise(max_ball_depth(tree, fam, v), old_max_ball_depth(tree, fam, v))


@pytest.mark.parametrize("seed", range(10))
def test_covering_family_of_large_random_trees(seed):
    tree = random_tree(seed, 400)
    assert bitwise(covering_family(tree), old_covering_family(tree))


# ---------------------------------------------------------------------------
# ties on unit edges, where the absolute 1e-12 of the old kernel and the
# relative one of the sweep agree.  A ball live at a vertex holds it, so
# along an edge down from it the ball covers a prefix of the edge or all
# of it: no edge of a covering family has a suffix span, and the old
# kernel's suffix branch never runs.


@pytest.mark.parametrize("gap", [0.5, 0.99, 1.0, 1.01, 1.5, 2.0])
def test_prefix_ending_near_the_end_of_an_edge(gap):
    # the root ball runs 0 -> 1 -> 4 and covers the prefix [0, a] of the
    # unit edge (1, 5): counted as covered when a is within 1e-12 of 1,
    # and then the edges below 5 get balls through 5 itself
    a = 1 - gap * 1e-12
    tree = MetricTree([(0, 1, a), (0, 2, 1.0), (0, 3, 1.0), (1, 4, 1.0), (1, 5, 1.0),
                       (5, 6, 1.0), (5, 7, 1.0)], stubs=[2, 3, 4, 6, 7], root=0)
    fam = covering_family(tree)
    assert bitwise(fam, old_covering_family(tree))
    assert [b.end for b in fam] == [4, 2, 3, 6, 7]
    assert (fam[3].level == tree.depth(5)) == (gap <= 1)


def test_prefix_ending_exactly_1e_12_before_the_end():
    # e = 1 - T with T = 1 - 1e-12 in floats.  Vertex 5, at depth 2 m =
    # 0.5 + e, lies on the boundary of the root ball, so the edge (5, 6)
    # gets a ball at level 0.5 + e, whose excess at 6 (depth 1.5) is T.
    # Along the unit edge (6, 9) it covers [0, T] in exact arithmetic:
    # covered, with no gap to spare
    t = 1 - 1e-12
    e = 1 - t
    m = 0.25 + e / 2
    tree = MetricTree([(0, 1, m), (0, 2, 1.0), (0, 3, 1.0), (1, 4, 1.0), (1, 5, m),
                       (5, 6, t), (5, 7, 1.0), (6, 8, 1.0), (6, 9, 1.0),
                       (9, 10, 1.0), (9, 11, 1.0)], stubs=[2, 3, 4, 7, 8, 10, 11], root=0)
    fam = covering_family(tree)
    assert bitwise(fam, old_covering_family(tree))
    assert [(b.end, b.level) for b in fam[3:]] == [(8, 0.5 + e), (7, 0.5 + e), (10, 2.5), (11, 2.5)]


def test_new_balls_numbered_in_discovery_order():
    # the root meets 3 before 2, so the uncovered edges (3, 9) and (2, 8)
    # of the second hop level get balls in that order, against the order
    # of their ids and of their parents' ids
    tree = MetricTree([(0, 1, 1.0), (0, 3, 1.0), (0, 2, 1.0), (1, 4, 1.0), (1, 5, 1.0),
                       (3, 6, 1.0), (3, 9, 2.0), (2, 7, 1.0), (2, 8, 2.0)],
                      stubs=[4, 5, 6, 7, 8, 9], root=0)
    fam = covering_family(tree)
    assert bitwise(fam, old_covering_family(tree))
    assert [(b.end, b.level) for b in fam] == [(4, 0.0), (6, 0.0), (7, 0.0), (9, 2.0), (8, 2.0)]


def test_empty_family_and_unknown_ends():
    tree = three_regular_tree(3)
    assert max_ball_depth(tree, [], tree.root) == old_max_ball_depth(tree, [], tree.root)
    assert validate_tree_horoballs(tree, []) == []
    stub = sorted(tree.stubs)[0]
    bad = [TreeHoroball(stub, 1.0), TreeHoroball(tree.root, 1.0)]
    for fn in (validate_tree_horoballs, max_ball_depth):
        args = (tree, bad) if fn is validate_tree_horoballs else (tree, bad, tree.root)
        with pytest.raises(ValueError, match="unknown stub"):
            fn(*args)


# ---------------------------------------------------------------------------
# the walk with forced choices, and validation of odd families


def walk(tree, balls, x0, overrides, tol=DEFAULT_TOL):
    """_walk from x0 as greedy_ray calls it, with forced choices."""
    cols = _, ends, levels = _ball_columns(tree, balls)
    start_depth = float(np.max(_busemann_at(tree, ends, x0) - levels, initial=float("-inf")))
    return _walk(tree, cols, x0, start_depth, overrides, tol * tree.ell_max)


def forced_choices(tree, balls, x0, count):
    """The walk's first decisions with every alternative forced there,
    then pairs of them, and one invalid choice."""
    status, *res = outcome(old_walk, tree, balls, x0, {}, DEFAULT_TOL)
    decisions = res[0][1] if status == "ok" else []
    single = [{idx: alt} for idx, alts in decisions[:count] for alt in alts]
    double = [{**a, **b} for a, b in zip(single, single[1:]) if a.keys() != b.keys()]
    return [{}] + single + double + [{0: tree.root}]


@pytest.mark.parametrize("kind", ["random-40", "random-60", "caterpillar"])
def test_walks_with_forced_choices(kind):
    for seed in range(12):
        tree = caterpillar(30 + seed, seed) if kind == "caterpillar" else \
            random_tree(seed, int(kind.split("-")[1]))
        rng = random.Random(seed)
        base = random_tree_horoballs(tree, 4, seed + 500)
        for fam in (base, covering_family(tree), shrunk(base, 0.4)):
            for x0 in [TreePoint.at_vertex(tree.root)] + starts(tree, rng, 3):
                for forced in forced_choices(tree, fam, x0, 3):
                    assert bitwise(outcome(walk, tree, fam, x0, forced),
                                   outcome(old_walk, tree, list(fam), x0, forced, DEFAULT_TOL))
                assert bitwise(outcome(greedy_ray, tree, fam, x0, validate=False),
                               outcome(old_greedy_ray, tree, list(fam), x0, validate=False))


@pytest.mark.parametrize("depth", [4, 6, 10, 12])
def test_walks_from_interior_vertices_of_three_regular_trees(depth):
    # from below the root the walk climbs first: every step up moves
    # the meets of the ends below the vertex it reaches
    tree = three_regular_tree(depth)
    fam = covering_family(tree)
    rng = random.Random(depth)
    inner = [v for v in sorted(tree.adj)
             if v not in tree.stubs and tree.depth(v) in (depth // 2, depth - 2)]
    for v in rng.sample(inner, 6):
        x0 = TreePoint.at_vertex(v)
        for forced in forced_choices(tree, fam, x0, 2):
            assert bitwise(outcome(walk, tree, fam, x0, forced),
                           outcome(old_walk, tree, list(fam), x0, forced, DEFAULT_TOL))


def odd_family(tree, rng, count):
    """count balls on few stubs, so that many share one, with levels in
    [-1, 4] and some NaN or infinite."""
    stubs = rng.sample(sorted(tree.stubs), min(4, len(tree.stubs)))
    ends = [rng.choice(stubs) for _ in range(count)]
    levels = [rng.choice([rng.uniform(-1, 4), rng.uniform(-1, 4), float("nan"),
                          float("inf"), float("-inf")]) for _ in range(count)]
    return TreeFamily(ends, levels)


def stub_rooted(tree):
    """The same tree rooted at its smallest stub, so that one end is the
    ancestor of all the others."""
    edges = [(u, v, l) for u, nbrs in tree.adj.items() for v, l in nbrs.items() if u < v]
    return MetricTree(edges, tree.stubs, min(tree.stubs))


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 0.0, -1e-9, -0.5, float("-inf"), float("nan")])
def test_validation_of_odd_families(tol):
    for seed in range(30):
        tree = random_tree(seed, 60) if seed % 3 else caterpillar(20 + seed, seed)
        if seed % 5 == 0:
            tree = stub_rooted(tree)
        rng = random.Random(seed)
        base = random_tree_horoballs(tree, 6, seed)
        # a ball on every stub reaching 0.8 above it: few pairs meet at
        # each of many nested vertices
        stubs = sorted(tree.stubs)
        near = TreeFamily(stubs, [tree.depth(s) - 0.8 for s in stubs])
        families = [odd_family(tree, rng, 12), shrunk(base, 0.4), shrunk(base, -0.2),
                    covering_family(tree), shrunk(covering_family(tree), 0.3), near,
                    TreeFamily([min(tree.stubs)] * 3 + list(base.end),
                               [0.0, 1.0, float("nan")] + list(base.level))]
        for fam in families:
            assert validate_tree_horoballs(tree, fam, tol) == \
                old_validate_tree_horoballs(tree, list(fam), tol)

"""Differential tests of the tree kernel against the per-ball loops it
replaced: covering_family, max_ball_depth, the greedy walk, greedy_ray
and validate_tree_horoballs as they were before the preorder index,
kept verbatim below as old_* (covering_family with its per-edge span
helpers, from before the level sweep).  Their Busemann values come from
the old parent-chain walks (old_meet_depth and friends), not from the
index, so the two sides share no kernel code."""

import random
from collections import deque

import pytest

from horoshadow.numeric import DEFAULT_TOL
from horoshadow.trees import (
    GreedyRayResult,
    MetricTree,
    TreeHoroball,
    TreePoint,
    TreeWalk,
    covering_family,
    greedy_ray,
    max_ball_depth,
    random_tree,
    random_tree_horoballs,
    three_regular_tree,
    tree_busemann,
    validate_tree_horoballs,
)

# ---------------------------------------------------------------------------
# the old parent-chain helpers (MetricTree methods before the index)


def old_stub_ancestors(tree, stub):
    if stub not in tree.stubs:
        raise ValueError(f"unknown stub {stub}")
    chain = {}
    v = stub
    while v is not None:
        chain[v] = tree._depth[v]
        v = tree._parent[v]
    return chain


def old_meet_depth(tree, vertex, stub):
    chain = old_stub_ancestors(tree, stub)
    v = vertex
    while v is not None:
        if v in chain:
            return tree._depth[v]
        v = tree._parent[v]
    raise AssertionError("disconnected tree")


def old_busemann_vertex(tree, stub, vertex):
    return 2 * old_meet_depth(tree, vertex, stub) - tree._depth[vertex]


def old_next_toward(tree, u, stub):
    chain = old_stub_ancestors(tree, stub)
    if u in chain:
        for v in tree.adj[u]:
            if v in chain and tree._depth[v] > tree._depth[u]:
                return v
        raise ValueError(f"{u} is the stub itself")
    return tree._parent[u]


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
            if a.level + b.level < 2 * meet - tol:
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
        if inside is not None and depth_here > tol:
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
        if old_tree_busemann(tree, b.end, x0) > b.level + tol:
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


def reversed_adjacency(tree):
    """The same tree with every adjacency in the opposite order, so that a
    vertex meets its child of smallest id last: the end a leftmost descent
    reaches then comes right after the subtrees of its siblings."""
    edges = [(u, v, l) for u, nbrs in tree.adj.items() for v, l in nbrs.items() if u < v]
    return MetricTree(edges[::-1], tree.stubs, tree.root)


# ---------------------------------------------------------------------------
# the index itself


@pytest.mark.parametrize("tree", [three_regular_tree(5), random_tree(3, 60),
                                  reversed_adjacency(three_regular_tree(5))],
                         ids=["three-regular-5", "random-3-60", "reversed-three-regular-5"])
def test_index_reads_the_parent_chains(tree):
    for stub in sorted(tree.stubs):
        for v in sorted(tree.adj):
            assert tree._meet_depth(v, stub) == old_meet_depth(tree, v, stub)
            assert tree_busemann(tree, stub, v) == old_tree_busemann(tree, stub, v)
            assert outcome(tree.next_toward, v, stub) == outcome(old_next_toward, tree, v, stub)
    with pytest.raises(ValueError, match="unknown stub"):
        tree._meet_depth(tree.root, tree.root)


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
@pytest.mark.parametrize("by", [0.0, 1e-12, 0.5, 3.0])
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
    assert (fam[3].level == tree._depth[5]) == (gap <= 1)


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

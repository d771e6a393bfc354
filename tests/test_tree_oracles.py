"""Differential tests of the tree kernel against the per-ball loops it
replaced: covering_family, max_ball_depth, the greedy walk, greedy_ray
and validate_tree_horoballs as they were before the preorder index,
kept verbatim below as old_*.  Their Busemann values come from the old
parent-chain walks (old_meet_depth and friends), not from the index, so
the two sides share no kernel code."""

import random
from collections import deque

import pytest

from horoshadow.numeric import DEFAULT_TOL
from horoshadow.trees import (
    GreedyRayResult,
    TreeHoroball,
    TreePoint,
    TreeWalk,
    _covers_unit,
    _leftmost_stub,
    _reach,
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


def old_covering_family(tree):
    balls = [TreeHoroball(_leftmost_stub(tree, tree.root, None), 0.0)]
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
            covered = _covers_unit(spans, length)
            if not covered:
                idx = len(balls)
                end = _leftmost_stub(tree, v, u)
                level = old_busemann_vertex(tree, end, u) + _reach(spans)
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


# ---------------------------------------------------------------------------
# the index itself


@pytest.mark.parametrize("tree", [three_regular_tree(5), random_tree(3, 60)],
                         ids=["three-regular-5", "random-3-60"])
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

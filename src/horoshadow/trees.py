"""Greedy geodesic rays avoiding horoballs in truncated metric trees.

A horoball around an end of a tree is a sublevel-complement of the
Busemann function of that end: {x : busemann(x) >= level}.  In a tree
with interior degrees at least 3 a ray can always duck out of a horoball
at the first vertex inside it, overshooting by at most one edge length,
so any family of disjoint horoballs shrunk by more than the maximal edge
length can be avoided from any admissible start point, and by two
distinct rays.  Ends are represented by stub leaves; a walk that would
need structure past a stub fails loudly instead of inventing it.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Union

from .numeric import DEFAULT_TOL


@dataclass(frozen=True)
class TreePoint:
    """Point on the edge (u, v) at distance `offset` from u; offset 0 is
    the vertex u itself (use u == v for a bare vertex)."""

    u: int
    v: int
    offset: float = 0.0

    @classmethod
    def at_vertex(cls, u: int) -> "TreePoint":
        return cls(u, u, 0.0)


@dataclass(frozen=True)
class TreeHoroball:
    end: int      # stub identifier
    level: float  # Busemann cut value


class MetricTree:
    """Finite truncation of a locally finite metric tree.

    Leaves must be declared as continuation stubs (they stand for ends);
    every non-stub vertex needs degree at least 3.  The root is the
    basepoint of all Busemann functions.
    """

    def __init__(self, edges: list[tuple], stubs, root: Optional[int] = None):
        self.adj: dict[int, dict[int, float]] = {}
        for u, v, length in edges:
            if length <= 0:
                raise ValueError("edge lengths must be positive")
            if u == v:
                raise ValueError("loops not allowed")
            self.adj.setdefault(u, {})[v] = length
            self.adj.setdefault(v, {})[u] = length
        self.stubs = frozenset(stubs)
        if not self.adj:
            raise ValueError("empty tree")
        self.root = min(self.adj) if root is None else root
        self._check()
        self._parent: dict[int, Optional[int]] = {}
        self._depth: dict[int, float] = {}
        self._rooted()
        self._ancestors: dict[int, dict[int, float]] = {}

    # -- structure ---------------------------------------------------------

    def _check(self):
        seen = {self.root}
        queue = deque([self.root])
        while queue:
            u = queue.popleft()
            for v in self.adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        if len(seen) != len(self.adj):
            raise ValueError("tree is not connected")
        edge_count = sum(len(n) for n in self.adj.values()) // 2
        if edge_count != len(self.adj) - 1:
            raise ValueError("graph has a cycle")
        for u, nbrs in self.adj.items():
            if u in self.stubs:
                if len(nbrs) != 1:
                    raise ValueError(f"stub {u} is not a leaf")
            elif len(nbrs) < 3:
                raise ValueError(f"interior vertex {u} has degree {len(nbrs)} < 3")

    def _rooted(self):
        self._parent[self.root] = None
        self._depth[self.root] = 0.0
        queue = deque([self.root])
        while queue:
            u = queue.popleft()
            for v, length in self.adj[u].items():
                if v not in self._parent:
                    self._parent[v] = u
                    self._depth[v] = self._depth[u] + length
                    queue.append(v)

    @property
    def ell_max(self) -> float:
        return max(l for nbrs in self.adj.values() for l in nbrs.values())

    def _stub_ancestors(self, stub: int) -> dict[int, float]:
        """Vertices of the root-to-stub ray mapped to their depth."""
        if stub not in self._ancestors:
            if stub not in self.stubs:
                raise ValueError(f"unknown stub {stub}")
            chain = {}
            v: Optional[int] = stub
            while v is not None:
                chain[v] = self._depth[v]
                v = self._parent[v]
            self._ancestors[stub] = chain
        return self._ancestors[stub]

    def _meet_depth(self, vertex: int, stub: int) -> float:
        """Metric depth of the point where vertex joins the root-stub ray."""
        chain = self._stub_ancestors(stub)
        v: Optional[int] = vertex
        while v is not None:
            if v in chain:
                return self._depth[v]
            v = self._parent[v]
        raise AssertionError("disconnected tree")

    def busemann_vertex(self, stub: int, vertex: int) -> float:
        """Busemann value toward the end behind `stub`, zero at the root:
        2 * depth(meet) - depth(vertex)."""
        return 2 * self._meet_depth(vertex, stub) - self._depth[vertex]

    def next_toward(self, u: int, stub: int) -> int:
        """Neighbor of u on the path from u toward the stub."""
        chain = self._stub_ancestors(stub)
        if u in chain:
            # descend: the unique neighbor in the chain deeper than u
            for v in self.adj[u]:
                if v in chain and self._depth[v] > self._depth[u]:
                    return v
            raise ValueError(f"{u} is the stub itself")
        return self._parent[u]


def tree_busemann(tree: MetricTree, end: int,
                  x: Union[TreePoint, int]) -> float:
    """Busemann function of the end behind `end`, normalized to vanish at
    the root; linear with slope +-1 along every edge, so mid-edge values
    interpolate the endpoint values exactly."""
    if isinstance(x, int):
        return tree.busemann_vertex(end, x)
    bu = tree.busemann_vertex(end, x.u)
    if x.u == x.v or x.offset == 0:
        return bu
    bv = tree.busemann_vertex(end, x.v)
    length = tree.adj[x.u][x.v]
    return bu + (bv - bu) * (x.offset / length)


def validate_tree_horoballs(tree: MetricTree,
                            balls: list[TreeHoroball],
                            tol: float = DEFAULT_TOL) -> list[tuple[int, int]]:
    """Pairs of horoballs whose open horoballs overlap.

    Two horoballs at ends w, w' with levels l, l' have disjoint open
    horoballs iff l + l' >= 2 * depth(meet of the two rays), the maximum
    of the two Busemann sums along the connecting geodesic.
    """
    bad = []
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            a, b = balls[i], balls[j]
            if a.end == b.end:
                bad.append((i, j))
                continue
            meet = tree._meet_depth(a.end, b.end)
            if a.level + b.level < 2 * meet - tol:
                bad.append((i, j))
    return bad


@dataclass
class TreeWalk:
    start: TreePoint
    vertices: list[int]
    max_depth: float
    detours: list[int] = field(default_factory=list)


@dataclass
class GreedyRayResult:
    path: TreeWalk
    two: TreeWalk
    max_depth: float


def _walk(tree: MetricTree, balls: list[TreeHoroball], x0: TreePoint,
          overrides: dict[int, int], tol: float
          ) -> tuple[TreeWalk, list[tuple[int, list[int]]]]:
    """One greedy walk; overrides maps decision index -> forced choice.

    Returns the walk and the list of decisions (index, alternatives).
    """
    beta0 = [tree_busemann(tree, b.end, x0) for b in balls]
    max_depth = max((beta0[i] - balls[i].level for i in range(len(balls))),
                    default=float("-inf"))
    decisions: list[tuple[int, list[int]]] = []
    detours: list[int] = []

    def choose(candidates: list[int]) -> int:
        idx = len(decisions)
        decisions.append((idx, candidates[1:]))
        forced = overrides.get(idx)
        if forced is not None:
            if forced not in candidates:
                raise ValueError("invalid forced choice")
            return forced
        return candidates[0]

    # initial direction
    if x0.u == x0.v or x0.offset == 0:
        cur, prev = x0.u, None
    elif x0.offset == tree.adj[x0.u][x0.v]:
        cur, prev = x0.v, None
    else:
        cur = choose(sorted((x0.u, x0.v)))
        prev = x0.v if cur == x0.u else x0.u  # never walk back through x0
    path = [cur]
    steps = 0
    limit = 2 * len(tree.adj) + 4
    while True:
        steps += 1
        if steps > limit:
            raise RuntimeError("walk exceeded the edge budget (cycle?)")
        depth_here, inside = max_ball_depth(tree, balls, cur)
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
            away = tree.next_toward(cur, balls[inside].end)
            candidates = [v for v in candidates if v != away]
            detours.append(cur)
        if not candidates:
            raise RuntimeError(f"stuck at vertex {cur}")
        nxt = candidates[0] if len(candidates) == 1 else choose(candidates)
        prev, cur = cur, nxt
        path.append(cur)
    return TreeWalk(x0, path, max_depth, detours), decisions


def max_ball_depth(tree: MetricTree, balls: list[TreeHoroball],
                   vertex: int) -> tuple[float, Optional[int]]:
    """Largest Busemann excess over all horoballs at a vertex, and the
    index of a horoball strictly containing it (None when outside all)."""
    best, who = float("-inf"), None
    for i, b in enumerate(balls):
        d = tree.busemann_vertex(b.end, vertex) - b.level
        if d > best:
            best, who = d, i
    return best, (who if best > 0 else None)


def greedy_ray(tree: MetricTree, balls: list[TreeHoroball],
               x0: Union[TreePoint, int], tol: float = DEFAULT_TOL,
               validate: bool = True) -> GreedyRayResult:
    """Two distinct geodesic rays from x0 whose depth in every horoball
    stays at most one edge length.

    The walk follows edges without backtracking; at the first vertex
    strictly inside a horoball it turns onto an edge pointing neither at
    the horoball's end nor backward (degree >= 3 provides one), which
    caps the Busemann excess by the length of the entering edge.  The
    second ray repeats the first until its earliest branching opportunity
    and picks the next admissible edge there.  Ties are broken toward
    smaller vertex identifiers throughout.
    """
    if isinstance(x0, int):
        x0 = TreePoint.at_vertex(x0)
    if validate:
        bad = validate_tree_horoballs(tree, balls, tol)
        if bad:
            raise ValueError(f"open horoballs overlap at pairs {bad}")
    for b in balls:
        if tree_busemann(tree, b.end, x0) > b.level + tol:
            raise ValueError("start point lies inside an open horoball")
    first, decisions = _walk(tree, balls, x0, {}, tol)
    second = None
    for idx, alternatives in decisions:
        for alt in alternatives:
            try:
                cand, _ = _walk(tree, balls, x0, {idx: alt}, tol)
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


# ---------------------------------------------------------------------------
# ready-made configurations


def three_regular_tree(depth: int) -> MetricTree:
    """Rooted 3-regular tree with unit edges: the root has three children,
    every interior vertex two more, leaves at the given depth are stubs."""
    if depth < 2:
        raise ValueError("need depth at least 2")
    edges = []
    stubs = []
    counter = [0]

    def fresh() -> int:
        counter[0] += 1
        return counter[0]

    def grow(u: int, d: int, fanout: int):
        if d == depth:
            stubs.append(u)
            return
        kids = [fresh() for _ in range(fanout)]
        for k in kids:
            edges.append((u, k, 1.0))
            grow(k, d + 1, 2)

    grow(0, 0, 3)
    return MetricTree(edges, stubs, root=0)


def _leftmost_stub(tree: MetricTree, u: int, banned: Optional[int]) -> int:
    """Descend from u away from `banned` toward smaller ids to a stub."""
    prev, cur = banned, u
    while cur not in tree.stubs:
        nxt = min(v for v in tree.adj[cur] if v != prev)
        prev, cur = cur, nxt
    return cur


def covering_family(tree: MetricTree) -> list[TreeHoroball]:
    """Horoballs with pairwise disjoint opens whose closures cover the
    whole truncation.

    One horoball is planted through the root; whenever the sweep down the
    tree finds an edge not fully covered, a new horoball through the
    upper endpoint is planted toward the leftmost stub below, tangent to
    the ball covering that endpoint.  Coverage per edge is the union of
    the per-ball intervals (Busemann values are linear on edges).
    """
    balls = [TreeHoroball(_leftmost_stub(tree, tree.root, None), 0.0)]
    # live[v]: indices of balls covering v (boundary counts)
    beta_cache: dict[tuple[int, int], float] = {}

    def beta(i: int, v: int) -> float:
        key = (i, v)
        if key not in beta_cache:
            beta_cache[key] = tree.busemann_vertex(balls[i].end, v)
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
                # tangent to the existing coverage: the new Busemann
                # level sits where the covered prefix of the edge ends
                level = tree.busemann_vertex(end, u) + _reach(spans)
                balls.append(TreeHoroball(end, level))
                nxt_live.append(idx)
            live[v] = nxt_live
            if v not in tree.stubs:
                queue.append(v)
    return balls


def _reach(spans: list[tuple[float, float]]) -> float:
    """Length of the covered prefix [0, reach] of the union of spans."""
    reach = 0.0
    for a, b in sorted(spans):
        if a > reach + 1e-12:
            break
        reach = max(reach, b)
    return reach


def _covers_unit(spans: list[tuple[float, float]], length: float) -> bool:
    return _reach(spans) >= length - 1e-12


def random_tree(seed: int, target_vertices: int = 40) -> MetricTree:
    """Seed-deterministic truncated tree with interior degrees 3 or 4 and
    edge lengths in (0.3, 1]."""
    rng = random.Random(seed)
    edges = []
    counter = [0]

    def fresh() -> int:
        counter[0] += 1
        return counter[0]

    frontier = deque()
    for _ in range(3):
        k = fresh()
        edges.append((0, k, rng.uniform(0.3, 1.0)))
        frontier.append(k)
    while counter[0] < target_vertices and frontier:
        u = frontier.popleft()
        fanout = rng.choice([2, 2, 3])
        for _ in range(fanout):
            k = fresh()
            edges.append((u, k, rng.uniform(0.3, 1.0)))
            frontier.append(k)
    stubs = list(frontier)
    return MetricTree(edges, stubs, root=0)


def random_tree_horoballs(tree: MetricTree, count: int,
                          seed: int) -> list[TreeHoroball]:
    """Seed-deterministic disjoint horoballs at distinct stubs with
    positive levels (so the root stays outside).

    Levels are capped three edge lengths above each stub so the
    horospheres sit well inside the truncation and a greedy walk always
    has room to duck out before running off the known tree.
    """
    rng = random.Random(seed)
    margin = 3 * tree.ell_max
    stubs = [s for s in sorted(tree.stubs) if tree._depth[s] > margin + 0.2]
    count = min(count, len(stubs))
    chosen = rng.sample(stubs, count)
    balls = []
    for s in chosen:
        for _ in range(50):
            level = rng.uniform(0.1, tree._depth[s] - margin)
            cand = balls + [TreeHoroball(s, level)]
            if not validate_tree_horoballs(tree, cand):
                balls.append(TreeHoroball(s, level))
                break
    return balls

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
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

from .numeric import DEFAULT_TOL

if TYPE_CHECKING:
    import numpy as np


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


class TreeColumns(NamedTuple):
    """A MetricTree in the discovery order of its breadth-first search
    from the root, one numpy entry per vertex: its id, the position of
    its parent (-1 at the root), the length of the edge to the parent (0
    at the root), its depth, its preorder entry and exit indices, the
    range kid0 <= p < kid1 of its children (contiguous in that order),
    and the position of the stub that steps to the child of smallest id
    reach from it."""

    vertex: "np.ndarray"
    parent: "np.ndarray"
    length: "np.ndarray"
    depth: "np.ndarray"
    tin: "np.ndarray"
    tout: "np.ndarray"
    kid0: "np.ndarray"
    kid1: "np.ndarray"
    leftmost: "np.ndarray"


class MetricTree:
    """Finite truncation of a locally finite metric tree.

    Leaves must be declared as continuation stubs (they stand for ends);
    every non-stub vertex needs degree at least 3.  The root is the
    basepoint of all Busemann functions.
    """

    def __init__(self, edges: list[tuple], stubs, root: Optional[int] = None):
        """One breadth-first search from the root gives the rooted
        structure, kept as TreeColumns (`_cols`), with `_pos` mapping
        each vertex to its position in them, and, for scalar code, the
        parent and depth of each vertex as dicts.  w lies in the subtree
        of v (v is w or an ancestor of it) iff tin[v] <= tin[w] < tout[v]."""
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
        self._parent: dict[int, Optional[int]] = {}
        self._depth: dict[int, float] = {}
        bfs = self._rooted()
        self._check(bfs[0])
        self._index(*bfs)
        self.ell_max = float(self._cols.length.max())

    # -- structure ---------------------------------------------------------

    def _rooted(self) -> tuple[list[int], array, array, array]:
        """Parents and depths by breadth-first search.  Returns the
        discovery order and, by position in it, the position of the
        parent and the range kid0 <= p < kid1 of the children (int64
        arrays, which hold no int object per entry)."""
        self._parent[self.root] = None
        self._depth[self.root] = 0.0
        order, parent, kid0, kid1 = [self.root], array("q", [-1]), array("q"), array("q")
        for p, u in enumerate(order):
            kid0.append(len(order))
            for v, length in self.adj[u].items():
                if v not in self._parent:
                    self._parent[v] = u
                    self._depth[v] = self._depth[u] + length
                    order.append(v)
                    parent.append(p)
            kid1.append(len(order))
        return order, parent, kid0, kid1

    def _check(self, order: list[int]):
        if len(order) != len(self.adj):
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

    def _index(self, order: list[int], parent: array, kid0: array, kid1: array):
        """TreeColumns from the search, and the position of each vertex."""
        import numpy as np
        n = len(order)
        size = array("q", [1]) * n
        for p in range(n - 1, 0, -1):
            size[parent[p]] += size[p]
        # preorder visiting children in discovery order: a first child
        # follows its parent, a later one the subtree of the sibling before
        tin = array("q", [0]) * n
        for p in range(1, n):
            q = parent[p]
            tin[p] = tin[q] + 1 if p == kid0[q] else tin[p - 1] + size[p - 1]
        leftmost = array("q", range(n))
        for p in reversed(range(n)):
            if order[p] not in self.stubs:
                leftmost[p] = leftmost[min(range(kid0[p], kid1[p]), key=order.__getitem__)]
        self._cols = TreeColumns(
            np.array(order), np.array(parent),
            np.fromiter((self.adj[v][self._parent[v]] if p else 0.0
                         for p, v in enumerate(order)), float, n),
            np.fromiter((self._depth[v] for v in order), float, n),
            np.array(tin), np.array(tin) + np.array(size), np.array(kid0),
            np.array(kid1), np.array(leftmost))
        self._pos = dict(zip(order, range(n)))

    def _holds(self, v: int, t: int) -> bool:
        """The subtree of v holds the vertex of preorder index t."""
        p = self._pos[v]
        return self._cols.tin.item(p) <= t < self._cols.tout.item(p)

    def _stub_tin(self, stub: int) -> int:
        if stub not in self.stubs:
            raise ValueError(f"unknown stub {stub}")
        return self._cols.tin.item(self._pos[stub])

    def _path(self, vertex: int) -> list[int]:
        """Vertices from the root down to vertex."""
        path = []
        v: Optional[int] = vertex
        while v is not None:
            path.append(v)
            v = self._parent[v]
        return path[::-1]

    def _meet_depth(self, vertex: int, stub: int) -> float:
        """Metric depth of the point where vertex joins the root-stub ray."""
        t, c = self._stub_tin(stub), self._cols
        p = self._pos[vertex]
        while not c.tin.item(p) <= t < c.tout.item(p):
            p = c.parent.item(p)
        return c.depth.item(p)

    def busemann_vertex(self, stub: int, vertex: int) -> float:
        """Busemann value toward the end behind `stub`, zero at the root:
        2 * depth(meet) - depth(vertex)."""
        return 2 * self._meet_depth(vertex, stub) - self._depth[vertex]

    def next_toward(self, u: int, stub: int) -> int:
        """Neighbor of u on the path from u toward the stub."""
        t = self._stub_tin(stub)
        if self._holds(u, t):
            # descend: the unique child whose subtree holds the stub
            for v in self.adj[u]:
                if v != self._parent[u] and self._holds(v, t):
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


def _ball_columns(tree: MetricTree, balls: list[TreeHoroball]):
    """(tin of each end, level) as numpy arrays, one entry per ball."""
    import numpy as np
    unknown = [b.end for b in balls if b.end not in tree.stubs]
    if unknown:
        raise ValueError(f"unknown stub {unknown[0]}")
    pos = np.array([tree._pos[b.end] for b in balls], dtype=np.int64)
    return tree._cols.tin[pos], np.array([b.level for b in balls], dtype=float)


def _meet_depths(tree: MetricTree, vertex: int, ends):
    """Depth of the point where vertex joins the ray to each end (an
    array of stub tins): the deepest vertex on the root-vertex path whose
    subtree holds the end.  Those subtrees are nested, so the ones that
    hold it are a prefix of the path, counted in one pass."""
    import numpy as np
    c = tree._cols
    path = np.array([tree._pos[v] for v in tree._path(vertex)])
    holds = (c.tin[path, None] <= ends) & (ends < c.tout[path, None])
    return c.depth[path[holds.sum(axis=0) - 1]]


def _busemann_at(tree: MetricTree, ends, x: TreePoint):
    """tree_busemann toward every end (array of stub tins) at x, in the
    same operations."""
    def at(v):
        return 2 * _meet_depths(tree, v, ends) - tree._depth[v]

    bu = at(x.u)
    if x.u == x.v or x.offset == 0:
        return bu
    bv = at(x.v)
    length = tree.adj[x.u][x.v]
    return bu + (bv - bu) * (x.offset / length)


def validate_tree_horoballs(tree: MetricTree,
                            balls: list[TreeHoroball],
                            tol: float = DEFAULT_TOL) -> list[tuple[int, int]]:
    """Pairs of horoballs whose open horoballs overlap.

    Two horoballs at ends w, w' with levels l, l' have disjoint open
    horoballs iff l + l' >= 2 * depth(meet of the two rays), the maximum
    of the two Busemann sums along the connecting geodesic.  One pass
    per ball reads the meets with all later ends off the preorder index.
    """
    import numpy as np
    ends, levels = _ball_columns(tree, balls)
    bad = []
    for i, b in enumerate(balls[:-1]):
        later = ends[i + 1:]
        meet = _meet_depths(tree, b.end, later)
        hit = (later == ends[i]) | (levels[i] + levels[i + 1:] < 2 * meet - tol)
        bad += [(i, i + 1 + j) for j in np.flatnonzero(hit).tolist()]
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


def _walk(tree: MetricTree, balls: list[TreeHoroball], cols, x0: TreePoint,
          start_depth: float, overrides: dict[int, int], tol: float
          ) -> tuple[TreeWalk, list[tuple[int, list[int]]]]:
    """One greedy walk over balls with columns cols (_ball_columns) from
    x0, where their largest Busemann excess is start_depth; overrides
    maps decision index -> forced choice.

    Returns the walk and the list of decisions (index, alternatives).
    """
    max_depth = start_depth
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
        depth_here, inside = _deepest(tree, cols, cur)
        max_depth = max(max_depth, depth_here)
        if cur in tree.stubs:
            if (cols[0] == tree._stub_tin(cur)).any():
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


def _deepest(tree: MetricTree, cols, vertex: int) -> tuple[float, Optional[int]]:
    """max_ball_depth over balls with columns cols."""
    import numpy as np
    ends, levels = cols
    if not len(levels):
        return float("-inf"), None
    excess = 2 * _meet_depths(tree, vertex, ends) - tree._depth[vertex] - levels
    who = int(np.argmax(excess))
    best = float(excess[who])
    return best, (who if best > 0 else None)


def max_ball_depth(tree: MetricTree, balls: list[TreeHoroball],
                   vertex: int) -> tuple[float, Optional[int]]:
    """Largest Busemann excess over all horoballs at a vertex, and the
    (first) index of a horoball strictly containing it (None when
    outside all)."""
    return _deepest(tree, _ball_columns(tree, balls), vertex)


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
    import numpy as np
    if isinstance(x0, int):
        x0 = TreePoint.at_vertex(x0)
    if validate:
        bad = validate_tree_horoballs(tree, balls, tol)
        if bad:
            raise ValueError(f"open horoballs overlap at pairs {bad}")
    cols = _ball_columns(tree, balls)
    beta0 = _busemann_at(tree, cols[0], x0)
    if (beta0 > cols[1] + tol).any():
        raise ValueError("start point lies inside an open horoball")
    start_depth = float(np.max(beta0 - cols[1], initial=float("-inf")))
    first, decisions = _walk(tree, balls, cols, x0, start_depth, {}, tol)
    second = None
    for idx, alternatives in decisions:
        for alt in alternatives:
            try:
                cand, _ = _walk(tree, balls, cols, x0, start_depth, {idx: alt}, tol)
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


def covering_family(tree: MetricTree) -> list[TreeHoroball]:
    """Horoballs with pairwise disjoint opens whose closures cover the
    whole truncation.

    One horoball is planted through the root; whenever the sweep down the
    tree finds an edge not fully covered, a new horoball through the
    upper endpoint is planted toward the leftmost stub below, tangent to
    the ball covering that endpoint.  Coverage per edge is the union of
    the per-ball intervals (Busemann values are linear on edges).

    The sweep takes one hop level per numpy pass, in discovery order, so
    new balls are numbered as a breadth-first search meets their edges.
    An edge counts as covered when at most 1e-12 of its length is left.
    Each pass costs a fixed numpy overhead (about 75 us on a 2-core Xeon)
    on top of its work per edge, so the sweep is fast where the hop depth
    is much smaller than the vertex count, as in three_regular_tree; on
    a tree whose hop depth grows with its size, such as a long chain
    with one stub on each vertex, it is slower than a loop over edges.
    """
    import numpy as np
    c = tree._cols
    n = len(c.vertex)
    # balls by number, at most one new ball per edge: end position, level
    end = np.empty(n, dtype=np.int64)
    level = np.empty(n)
    end[0], level[0] = c.leftmost[0], 0.0
    count = 1
    # the live (vertex, ball, meet depth) triples of one hop level: the
    # balls whose closure holds the vertex, and the ball planted on the
    # edge into it; the meet of ball i at a child v is v itself when v's
    # subtree holds the end of i, and the meet at its parent otherwise
    at = np.zeros(1, dtype=np.int64)
    ball = np.zeros(1, dtype=np.int64)
    meet = np.zeros(1)
    first, last = 0, 1
    while c.kid0[first] < c.kid1[last - 1]:
        first, last = c.kid0[first], c.kid1[last - 1]
        kids = c.kid1[at] - c.kid0[at]
        v = np.arange(kids.sum()) + np.repeat(c.kid0[at] - (np.cumsum(kids) - kids), kids)
        i = np.repeat(ball, kids)
        meet_u = np.repeat(meet, kids)
        du, dv, length, lev = c.depth[c.parent[v]], c.depth[v], c.length[v], level[i]
        end_tin = c.tin[end[i]]
        meet_v = np.where((c.tin[v] <= end_tin) & (end_tin < c.tout[v]), dv, meet_u)
        bu, bv = 2 * meet_u - du - lev, 2 * meet_v - dv - lev
        # a live ball holds its vertex (bu >= 0: a carried ball had bv >= 0
        # on the edge above, a planted one has its level at most the depth
        # of its vertex), so it covers a prefix [0, span] of the edge down
        # from it, and the edge is covered up to the longest of them
        span = length.copy()
        out = bv < 0
        span[out] = length[out] * bu[out] / (bu[out] - bv[out])
        reach = np.zeros(last - first)
        np.maximum.at(reach, v - first, span)
        edge = c.length[first:last]
        bare = np.flatnonzero(reach < edge - 1e-12 * edge)
        # tangent to the existing coverage: the new Busemann level sits
        # where the covered prefix of the edge ends (u lies on the ray to
        # the end, so its Busemann value there is its depth)
        planted = first + bare
        new = np.arange(count, count + bare.size)
        end[new] = c.leftmost[planted]
        level[new] = c.depth[c.parent[planted]] + reach[bare]
        count += bare.size
        keep = bv >= 0
        at = np.concatenate([v[keep], planted])
        ball = np.concatenate([i[keep], new])
        meet = np.concatenate([meet_v[keep], c.depth[planted]])
    return [TreeHoroball(e, lv) for e, lv in
            zip(c.vertex[end[:count]].tolist(), level[:count].tolist())]


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

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

import itertools
import random
from array import array
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

from .numeric import DEFAULT_TOL, spans

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


class TreeFamily(Sequence):
    """Horoballs of a tree as two columns: `end`, the stub ids (int64),
    and `level`, the Busemann cut values (float64).  A member is a
    TreeHoroball built when read; the family compares equal to any list
    or tuple of the same horoballs, and its repr is theirs."""

    __slots__ = ("end", "level")
    __hash__ = None

    def __init__(self, end, level):
        import numpy as np
        self.end = np.asarray(end, dtype=np.int64)
        self.level = np.asarray(level, dtype=float)

    def __len__(self) -> int:
        return len(self.end)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TreeFamily(self.end[i], self.level[i])
        return TreeHoroball(self.end.item(i), self.level.item(i))

    def __iter__(self):
        return map(TreeHoroball, self.end.tolist(), self.level.tolist())

    def __eq__(self, other):
        if not isinstance(other, (TreeFamily, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return repr(list(self))


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
        structure, kept only as TreeColumns (`_cols`), with `_pos` mapping
        each vertex to its position in them.  w lies in the subtree of v
        (v is w or an ancestor of it) iff tin[v] <= tin[w] < tout[v]."""
        self.adj: dict[int, dict[int, float]] = {}
        for u, v, length in edges:
            if not 0 < length < float("inf"):
                raise ValueError("edge lengths must be positive and finite")
            if u == v:
                raise ValueError("loops not allowed")
            nbrs = self.adj.setdefault(u, {})
            if v in nbrs:
                raise ValueError(f"edge ({u}, {v}) is given twice")
            nbrs[v] = length
            self.adj.setdefault(v, {})[u] = length
        self.stubs = frozenset(stubs)
        if not self.adj:
            raise ValueError("empty tree")
        self.root = min(self.adj) if root is None else root
        if self.root not in self.adj:
            raise ValueError(f"root {self.root} is not a vertex")
        stray = self.stubs - self.adj.keys()
        if stray:
            raise ValueError(f"stub {min(stray, key=repr)} is not a vertex")
        self._index(*self._rooted())
        self.ell_max = float(self._cols.length.max())

    # -- structure ---------------------------------------------------------

    def _rooted(self) -> tuple[list[int], array, array, array, array, array]:
        """Breadth-first search from the root: fills `_pos`, returns the
        discovery order and, by position in it, the array columns parent
        position, edge length, depth, kid0 and kid1 (TreeColumns)."""
        self._pos = {self.root: 0}
        order = [self.root]
        parent, length, depth = array("q", [-1]), array("d", [0.0]), array("d", [0.0])
        kid0, kid1 = array("q"), array("q")
        for p, u in enumerate(order):
            kid0.append(len(order))
            for v, edge in self.adj[u].items():
                if v not in self._pos:
                    self._pos[v] = len(order)
                    order.append(v)
                    parent.append(p)
                    length.append(edge)
                    depth.append(depth[p] + edge)
            kid1.append(len(order))
        return order, parent, length, depth, kid0, kid1

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

    def _index(self, order: list[int], parent: array, length: array, depth: array,
               kid0: array, kid1: array):
        """TreeColumns from the search, after checking that it met a tree."""
        import numpy as np
        self._check(order)
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
        c = self._cols = TreeColumns(
            np.array(order), np.array(parent), np.array(length), np.array(depth),
            np.array(tin), np.array(tin) + np.array(size), np.array(kid0),
            np.array(kid1), np.array(leftmost))
        # the stubs (the vertices of degree 1) by id, and their tins
        stub = np.flatnonzero(c.kid1 - c.kid0 + (c.parent >= 0) == 1)
        by_id = stub[np.argsort(c.vertex[stub], kind="stable")]
        self._stub_ids, self._stub_tins = c.vertex[by_id], c.tin[by_id]

    def depth(self, vertex: int) -> float:
        """Distance from the root to vertex."""
        return self._cols.depth.item(self._pos[vertex])

    def _stub_tin(self, stub: int) -> int:
        if stub not in self.stubs:
            raise ValueError(f"unknown stub {stub}")
        return self._cols.tin.item(self._pos[stub])

    def _path(self, vertex: int) -> list[int]:
        """Positions of the vertices from the root down to vertex."""
        path, p, parent = [], self._pos[vertex], self._cols.parent
        while p >= 0:
            path.append(p)
            p = parent.item(p)
        return path[::-1]

    def next_toward(self, u: int, stub: int) -> int:
        """Neighbor of u on the path from u toward the stub: its parent,
        unless its subtree holds the stub; then the one child whose
        subtree does."""
        t, c, p = self._stub_tin(stub), self._cols, self._pos[u]
        if not c.tin.item(p) <= t < c.tout.item(p):
            return c.vertex.item(c.parent.item(p))
        for k in range(c.kid0.item(p), c.kid1.item(p)):
            if c.tin.item(k) <= t < c.tout.item(k):
                return c.vertex.item(k)
        raise ValueError(f"{u} is the stub itself")


def _ball_columns(tree: MetricTree, balls: Sequence[TreeHoroball]):
    """(end, tin of each end, level) as numpy arrays, one entry per ball:
    the columns of a TreeFamily, or of a list of horoballs read once, and
    the tins by one lookup in the tree's stubs sorted by id."""
    import numpy as np
    if not isinstance(balls, TreeFamily):
        balls = TreeFamily([b.end for b in balls], [b.level for b in balls])
    ids, end = tree._stub_ids, balls.end
    k = np.minimum(np.searchsorted(ids, end), len(ids) - 1)
    unknown = ids[k] != end
    if unknown.any():
        raise ValueError(f"unknown stub {end.item(np.argmax(unknown))}")
    return end, tree._stub_tins[k], balls.level


def _meet_depths(tree: MetricTree, vertex: int, ends):
    """Depth of the point where vertex joins the ray to each end (an
    array of stub tins): the deepest vertex on the root-vertex path whose
    subtree holds the end.  Those subtrees are nested, tin rising and
    tout falling along the path, so the ones that hold an end e are a
    prefix of it, of length min(#tin <= e, #tout > e): two binary
    searches."""
    import numpy as np
    c = tree._cols
    path = np.array(tree._path(vertex))
    tout = c.tout[path[::-1]]
    held = np.minimum(np.searchsorted(c.tin[path], ends, side="right"),
                      len(path) - np.searchsorted(tout, ends, side="right"))
    return c.depth[path[held - 1]]


def _busemann_at(tree: MetricTree, ends, x: TreePoint):
    """Busemann functions toward every end (array of stub tins) at x,
    normalized to vanish at the root: 2 depth(meet) - depth(x) at a
    vertex, and linear with slope +-1 along every edge, so mid-edge
    values interpolate the endpoint values exactly."""
    def at(v):
        return 2 * _meet_depths(tree, v, ends) - tree.depth(v)

    bu = at(x.u)
    if x.u == x.v or x.offset == 0:
        return bu
    bv = at(x.v)
    length = tree.adj[x.u][x.v]
    return bu + (bv - bu) * (x.offset / length)


def _range_argmin(values):
    """argmin(lo, hi): for every k, the position of the least of
    values[lo[k]:hi[k]] (lo < hi; NaN only where all are, as np.fmin),
    from a table of the least position in each power-of-two window: two
    overlapping windows per range."""
    import numpy as np

    def least(a, b):
        return np.where((values[a] > values[b]) | np.isnan(values[a]), b, a)

    table = np.empty((len(values).bit_length(), len(values)), dtype=np.int64)
    table[0] = np.arange(len(values))
    for r in range(1, len(table)):
        w = 2 ** (r - 1)
        table[r] = table[r - 1]
        table[r, :-w] = least(table[r - 1, :-w], table[r - 1, w:])

    def argmin(lo, hi):
        j = np.frexp(hi - lo)[1] - 1
        return least(table[j, lo], table[j, hi - 2 ** j])
    return argmin


def _below(argmin, values, lo, hi, add, bound):
    """(k, p) for every lo[k] <= p < hi[k] with values[p] + add[k] <
    bound[k], where argmin is _range_argmin(values).  The test is
    monotone in values[p], as float rounding is, so a range whose least
    value fails holds no more; one whose least passes is split around
    it.  The cost is O(ranges + pairs found) elements, in one numpy pass
    per level of that splitting."""
    import numpy as np
    k = np.arange(len(lo))
    found_k, found_p = [k[:0]], [k[:0]]
    with np.errstate(invalid="ignore"):
        while True:
            live = lo < hi
            k, lo, hi = k[live], lo[live], hi[live]
            if not len(k):
                break
            p = argmin(lo, hi)
            ok = values[p] + add[k] < bound[k]
            k, p, lo, hi = k[ok], p[ok], lo[ok], hi[ok]
            found_k.append(k)
            found_p.append(p)
            k, lo, hi = np.concatenate([k, k]), np.concatenate([lo, p + 1]), np.concatenate([p, hi])
    return np.concatenate(found_k), np.concatenate(found_p)


def validate_tree_horoballs(tree: MetricTree,
                            balls: Sequence[TreeHoroball],
                            tol: float = DEFAULT_TOL) -> list[tuple[int, int]]:
    """Sorted pairs of horoballs (a TreeFamily, or a list of TreeHoroball)
    whose open horoballs overlap beyond tol times the longest edge
    (relative, so the verdict scales with the tree).

    Two horoballs at ends w, w' with levels l, l' have disjoint open
    horoballs iff l + l' >= 2 * depth(meet of the two rays), the maximum
    of the two Busemann sums along the connecting geodesic; two at one
    end always overlap.  Sorted by end tin, the balls below a vertex are
    a contiguous run, and the meets of distinct ends are the meets of
    tin-consecutive ones, each the parent of the vertex of largest tout
    (ties to the smallest tin) between their tins.  The pairs that meet
    at a vertex a run between its child runs, and a ball x of one run
    has a partner in another iff l_x plus the least level of the other
    runs is below bound(a) = 2 depth(a) - tol ell_max, as float rounding
    is monotone (np.fmin order, so a NaN level hides no other ball).
    Those balls, then their partners in the later runs, are found by
    splitting ranges around their least level (_below), so the cost is
    O(N log N + vertices + pairs listed), with one numpy pass per level
    of the splitting.
    """
    import numpy as np
    _, tins, levels = _ball_columns(tree, balls)
    c, n = tree._cols, len(tree._cols.vertex)
    order = np.argsort(tins, kind="stable")
    t, lev = tins[order], levels[order]
    cut = np.flatnonzero(t[1:] != t[:-1]) + 1  # first ball of each later end
    # the shared ends: all pairs within a run of equal tins
    tail = np.concatenate([cut, [len(t)]])
    k, x = spans(np.concatenate([[0], cut]), tail)
    k, y = spans(x + 1, tail[k])
    pairs = [(x[k], y)]
    if cut.size:
        # the meet of each tin-consecutive pair of ends, by preorder
        key, up = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
        key[c.tin] = c.tout * (n + 1) + n - c.tin
        up[c.tin] = c.parent
        top = np.maximum.reduceat(key[:t[-1] + 1], t[cut - 1] + 1)
        meet = up[n - top % (n + 1)]
        # the child runs of each meet: cut at its own cuts, in order
        g = np.lexsort((cut, meet))
        cut, meet = cut[g], meet[g]
        new = np.concatenate([[True], meet[1:] != meet[:-1]])
        last = np.concatenate([new[1:], [True]])
        start = np.where(new, np.searchsorted(t, c.tin[meet]), np.concatenate([[0], cut[:-1]]))
        owner = np.concatenate([meet, meet[last]])
        lo = np.concatenate([start, cut[last]])
        hi = np.concatenate([cut, np.searchsorted(t, c.tout[meet[last]])])
        # by meet, the run of least level first (a meet has two runs or
        # more), and for each run the least level of the other runs
        argmin = _range_argmin(lev)
        least = lev[argmin(lo, hi)]
        g = np.lexsort((least, owner))
        owner, least, lo, hi = owner[g], least[g], lo[g], hi[g]
        new = np.concatenate([[True], owner[1:] != owner[:-1]])
        head = np.maximum.accumulate(np.where(new, np.arange(len(owner)), 0))
        other = np.where(new, least[head + 1], least[head])
        with np.errstate(invalid="ignore"):
            bound = 2 * c.depth[owner] - tol * tree.ell_max
        run, x = _below(argmin, lev, lo, hi, other, bound)
        k, y = _below(argmin, lev, hi[run], np.searchsorted(t, c.tout[owner[run]]),
                      lev[x], bound[run])
        pairs.append((x[k], y))
    x, y = (np.concatenate(p) for p in zip(*pairs))
    i, j = order[x], order[y]
    m = len(t) or 1
    key = np.sort(np.minimum(i, j) * m + np.maximum(i, j))
    return list(zip((key // m).tolist(), (key % m).tolist()))


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


def _walk(tree: MetricTree, cols, x0: TreePoint, start_depth: float,
          overrides: dict[int, int], slack: float
          ) -> tuple[TreeWalk, list[tuple[int, list[int]]]]:
    """One greedy walk over the balls with columns cols (_ball_columns)
    from x0, where their largest Busemann excess is start_depth; it turns off
    at a vertex deeper than slack inside a ball, the first of largest
    excess.  overrides maps decision index -> forced choice.

    The walk keeps the depth of its meet with every end, from one
    _meet_depths at its first vertex.  A step to a neighbor v moves the
    meet of the ends below v, a tin range found by binary search, to v
    (up or down, v is their meet, and the other ends meet the walk
    above v, where they did before), and leaves the others.

    Returns the walk and the list of decisions (index, alternatives).
    """
    import numpy as np
    c = tree._cols
    ids, ends, levels = cols
    by_tin = np.argsort(ends, kind="stable")
    sorted_ends = ends[by_tin]
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
    p = tree._pos[cur]
    meet = _meet_depths(tree, cur, ends)
    for _ in range(2 * len(tree.adj) + 4):
        inside = None
        if len(levels):
            excess = 2 * meet - c.depth.item(p) - levels
            who = int(np.argmax(excess))
            depth_here = float(excess[who])
            max_depth = max(max_depth, depth_here)
            if depth_here > 0:
                inside = who
        if cur in tree.stubs:
            if (ids == cur).any():
                raise RuntimeError(
                    f"walk exits through the end of a horoball at stub {cur}; "
                    f"progress: {path}")
            break
        candidates = [v for v in sorted(tree.adj[cur]) if v != prev]
        if inside is not None and depth_here > slack:
            away = tree.next_toward(cur, ids.item(inside))
            candidates = [v for v in candidates if v != away]
            detours.append(cur)
        if not candidates:
            raise RuntimeError(f"stuck at vertex {cur}")
        nxt = candidates[0] if len(candidates) == 1 else choose(candidates)
        p = tree._pos[nxt]
        lo, hi = np.searchsorted(sorted_ends, (c.tin.item(p), c.tout.item(p)))
        meet[by_tin[lo:hi]] = c.depth.item(p)
        prev, cur = cur, nxt
        path.append(cur)
    else:
        raise RuntimeError("walk exceeded the edge budget (cycle?)")
    return TreeWalk(x0, path, max_depth, detours), decisions


def greedy_ray(tree: MetricTree, balls: Sequence[TreeHoroball],
               x0: Union[TreePoint, int], tol: float = DEFAULT_TOL,
               validate: bool = True) -> GreedyRayResult:
    """Two distinct geodesic rays from x0 whose depth in every horoball
    (a TreeFamily, or a list of TreeHoroball) stays at most one edge
    length.

    The walk follows edges without backtracking; at the first vertex
    strictly inside a horoball it turns onto an edge pointing neither at
    the horoball's end nor backward (degree >= 3 provides one), which
    caps the Busemann excess by the length of the entering edge.  The
    second ray repeats the first until its earliest branching opportunity
    and picks the next admissible edge there.  Ties are broken toward
    smaller vertex identifiers throughout.  "Inside" means deeper than
    tol times the longest edge, for the start point and the walk alike,
    so the walks scale with the tree.  The walks read the balls' columns
    (_ball_columns); no TreeHoroball is built.
    """
    import numpy as np
    if isinstance(x0, int):
        x0 = TreePoint.at_vertex(x0)
    if validate:
        bad = validate_tree_horoballs(tree, balls, tol)
        if bad:
            raise ValueError(f"open horoballs overlap at pairs {bad}")
    cols = _, ends, levels = _ball_columns(tree, balls)
    beta0 = _busemann_at(tree, ends, x0)
    slack = tol * tree.ell_max
    if (beta0 > levels + slack).any():
        raise ValueError("start point lies inside an open horoball")
    start_depth = float(np.max(beta0 - levels, initial=float("-inf")))
    first, decisions = _walk(tree, cols, x0, start_depth, {}, slack)
    second = None
    for idx, alternatives in decisions:
        for alt in alternatives:
            try:
                cand, _ = _walk(tree, cols, x0, start_depth, {idx: alt}, slack)
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
    edges, stubs, ids = [], [], itertools.count(1)

    def grow(u: int, d: int, fanout: int):
        if d == depth:
            stubs.append(u)
            return
        kids = [next(ids) for _ in range(fanout)]
        for k in kids:
            edges.append((u, k, 1.0))
            grow(k, d + 1, 2)

    grow(0, 0, 3)
    return MetricTree(edges, stubs, root=0)


def covering_family(tree: MetricTree) -> TreeFamily:
    """Horoballs with pairwise disjoint opens whose closures cover the
    whole truncation, as a TreeFamily built from the sweep's columns.

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
        k, v = spans(c.kid0[at], c.kid1[at])
        i, meet_u = ball[k], meet[k]
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
    return TreeFamily(c.vertex[end[:count]], level[:count].copy())


def random_tree(seed: int, target_vertices: int = 40) -> MetricTree:
    """Seed-deterministic truncated tree with interior degrees 3 or 4 and
    edge lengths in (0.3, 1]."""
    rng = random.Random(seed)
    # vertex k > 0 comes with edge k, so the edge count is the last id
    edges = [(0, k, rng.uniform(0.3, 1.0)) for k in (1, 2, 3)]
    frontier = deque([1, 2, 3])
    while len(edges) < target_vertices and frontier:
        u = frontier.popleft()
        for _ in range(rng.choice([2, 2, 3])):
            edges.append((u, len(edges) + 1, rng.uniform(0.3, 1.0)))
            frontier.append(len(edges))
    return MetricTree(edges, list(frontier), root=0)


def random_tree_horoballs(tree: MetricTree, count: int,
                          seed: int) -> TreeFamily:
    """Seed-deterministic disjoint horoballs at distinct stubs with
    positive levels (so the root stays outside), as a TreeFamily.

    Levels are capped three edge lengths above each stub so the
    horospheres sit well inside the truncation and a greedy walk always
    has room to duck out before running off the known tree.
    """
    rng = random.Random(seed)
    margin = 3 * tree.ell_max
    stubs = [s for s in sorted(tree.stubs) if tree.depth(s) > margin + 0.2]
    ends, levels = [], []
    for s in rng.sample(stubs, min(count, len(stubs))):
        for _ in range(50):
            level = rng.uniform(0.1, tree.depth(s) - margin)
            if not validate_tree_horoballs(tree, TreeFamily(ends + [s], levels + [level])):
                ends.append(s)
                levels.append(level)
                break
    return TreeFamily(ends, levels)

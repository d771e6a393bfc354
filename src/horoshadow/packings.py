"""Generators and validators for named horoball families.

All generators emit finite truncations of the corresponding infinite
families, in the normalization where the distinguished boundary point is
infinity and the reference horosphere sits at Euclidean height 1.  The
arithmetic families (Farey, geometric) carry exact Fraction coordinates
so disjointness and tangency can be certified with integer arithmetic.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional

from .halfspace import (
    AtInfinityHoroball,
    Horoball,
    TangentHoroball,
    vnorm2,
    vsub,
)
from .numeric import DEFAULT_TOL, SHARP_SCALE, may_be_le, sweep_pairs, to_float


@dataclass(frozen=True)
class Columns:
    """Float column view of a family, for the numpy filters in front of
    the scalar predicates: the indices of the tangent members
    (increasing) with their base rows and radii, and the indices of the
    members at infinity with their heights.  A value beyond the float
    range reads as -inf or +inf.  exact says that no value is a Fraction
    (or another type numpy keeps as an object), so float arithmetic on
    the columns is the arithmetic on the members."""

    tangent: object
    base: object
    radius: object
    infinity: object
    height: object
    exact: bool


def _float_array(values, shape):
    """(float array, whether numpy read every value as a number)"""
    import numpy as np
    array = np.array(values).reshape(shape)
    if array.dtype != object:
        return array.astype(float), True
    return np.frompyfunc(to_float, 1, 1)(array).astype(float), False


@dataclass
class HoroballFamily:
    """Finite ordered family of horoballs in upper half-space; the
    members are fixed once it is built (`columns` is computed once)."""

    dim: int
    horoballs: list[Horoball]
    labels: Optional[list[str]] = None

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("ambient dimension must be at least 2")
        for h in self.horoballs:
            if isinstance(h, TangentHoroball) and len(h.base) != self.dim - 1:
                raise ValueError("horoball base dimension does not match family")

    def tangent_items(self) -> list[tuple[int, TangentHoroball]]:
        return [(i, h) for i, h in enumerate(self.horoballs)
                if isinstance(h, TangentHoroball)]

    @cached_property
    def columns(self) -> Columns:
        import numpy as np
        items = self.tangent_items()
        infs = [(i, h.height) for i, h in enumerate(self.horoballs)
                if isinstance(h, AtInfinityHoroball)]
        base, base_exact = _float_array([h.base for _, h in items],
                                        (len(items), self.dim - 1))
        radius, radius_exact = _float_array([h.radius for _, h in items], len(items))
        height, height_exact = _float_array([x for _, x in infs], len(infs))
        return Columns(np.array([i for i, _ in items], dtype=np.intp), base, radius,
                       np.array([i for i, _ in infs], dtype=np.intp), height,
                       base_exact and radius_exact and height_exact)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: list = field(default_factory=list)


def validate_disjoint(fam: HoroballFamily, tol: float = DEFAULT_TOL,
                      exact: bool = False) -> ValidationReport:
    """Check pairwise disjointness of the open horoballs.

    For two tangent horoballs the test is the quadratic certificate
    |x - x'|^2 >= 4 r r' (exact under Fraction coordinates when
    exact=True); a tangent horoball against a horoball at infinity of
    height h requires 2r <= h, tested on the members that a float filter
    (may_be_le) leaves.  Violating index pairs are reported.

    Two tangent horoballs can overlap only if their shadow intervals
    [x_1 - r, x_1 + r] on the first base coordinate meet, because
    4 r r' <= (r + r')^2.  Candidate pairs therefore come from a sort
    and sweep of these intervals in floats, widened so that no pair the
    certificate rejects is pruned, at any scale; the certificate then
    runs on the candidates only: vectorised in floats with slack tol, or
    in rational arithmetic with zero slack when exact=True.  Cost is
    O(N log N + candidates).
    """
    import numpy as np
    hs, cols = fam.horoballs, fam.columns
    slack = 0 if exact else tol
    infs, tangs = cols.infinity.tolist(), cols.tangent.tolist()
    bad = [(i, j) for k, i in enumerate(infs) for j in infs[k + 1:]]
    xs, rs = cols.base, cols.radius
    for j in infs:
        cap = to_float(hs[j].height) * (1 + slack)
        for k in np.flatnonzero(may_be_le(cap, 2 * rs, abs(cap) + 2 * rs)).tolist():
            if 2 * hs[tangs[k]].radius > hs[j].height * (1 + slack):
                bad.append(tuple(sorted((tangs[k], j))))
    # a negative slack lets the float test reach sqrt(1 - slack) times
    # further than the shadows
    a, b = sweep_pairs(xs[:, 0], rs * math.sqrt(max(1.0, 1.0 - slack)))
    if exact:
        for p, q in zip(cols.tangent[a].tolist(), cols.tangent[b].tolist()):
            if vnorm2(vsub(hs[p].base, hs[q].base)) < 4 * hs[p].radius * hs[q].radius:
                bad.append((p, q))
    else:
        diff = xs[a] - xs[b]
        hit = np.einsum("ij,ij->i", diff, diff) < 4 * rs[a] * rs[b] * (1 - slack)
        bad.extend(zip(cols.tangent[a[hit]].tolist(), cols.tangent[b[hit]].tolist()))
    bad.sort()
    return ValidationReport(not bad, bad)


def farey(q_max: int, p_range: tuple = (0, 1),
          include_infinity: bool = False) -> HoroballFamily:
    """Horoballs tangent at the reduced fractions p/q with q <= q_max and
    p/q inside the closed interval p_range, each of Euclidean radius
    1/(2 q^2); optionally with the reference horoball at infinity.

    Two members are tangent exactly when |p q' - p' q| = 1.
    """
    if q_max < 1:
        raise ValueError("q_max must be at least 1")
    lo, hi = Fraction(p_range[0]), Fraction(p_range[1])
    if lo > hi:
        raise ValueError("empty fraction range")
    balls: list[Horoball] = []
    labels: list[str] = []
    for q in range(1, q_max + 1):
        p_lo = math.ceil(lo * q)
        p_hi = math.floor(hi * q)
        for p in range(p_lo, p_hi + 1):
            if math.gcd(p, q) != 1:
                continue
            balls.append(TangentHoroball((Fraction(p, q),), Fraction(1, 2 * q * q)))
            labels.append(f"{p}/{q}")
    if include_infinity:
        balls.append(AtInfinityHoroball(1))
        labels.append("inf")
    if not balls:
        raise ValueError("no fractions in range")
    return HoroballFamily(2, balls, labels)


def geometric(n_min: int, n_max: int) -> HoroballFamily:
    """Self-similar chain of mutually tangent horoballs with radii 16^n,
    tangent at (8/15)(1 - 16^n); the quadratic packing identity holds
    exactly but the radii are unbounded (negative control for the
    bounded-radius hypothesis of the uncovering result)."""
    if n_min > n_max:
        raise ValueError("empty index range")
    c = Fraction(8, 15)
    balls = [TangentHoroball((c * (1 - Fraction(16) ** n),), Fraction(16) ** n)
             for n in range(n_min, n_max + 1)]
    labels = [str(n) for n in range(n_min, n_max + 1)]
    return HoroballFamily(2, balls, labels)


def extremal(generations: int, s: float = SHARP_SCALE) -> HoroballFamily:
    """Binary tree of horoballs rooted at the unit ball tangent at 0.

    Children of a ball tangent at x with radius r sit at x +- r(1+s)/2
    with radius r(1-s)/2, i.e. their shadows are exactly the two
    components of the parent shadow minus the scaled parent shadow.  At
    s = SHARP_SCALE every child is tangent to its parent and the whole
    family is pairwise disjoint; below it parents and children overlap.
    Generated breadth first, 2^(generations+1) - 1 horoballs.
    """
    if generations < 1:
        raise ValueError("need at least one generation")
    if not 0 < s < 1:
        raise ValueError("scale factor must lie in (0, 1)")
    zero = 0 * s  # keeps Fraction input exact all the way down
    balls = [TangentHoroball((zero,), zero + 1)]
    labels = [""]
    level = [(balls[0].base[0], balls[0].radius, "")]
    for _ in range(generations):
        nxt = []
        for x, r, tag in level:
            off = r * (1 + s) / 2
            rc = r * (1 - s) / 2
            for sgn, letter in ((-1, "L"), (1, "R")):
                child = (x + sgn * off, rc, tag + letter)
                nxt.append(child)
                balls.append(TangentHoroball((child[0],), rc))
                labels.append(child[2])
        level = nxt
    return HoroballFamily(2, balls, labels)


def random_disjoint(count: int, dim: int = 2, seed: int = 0) -> HoroballFamily:
    """Seed-deterministic family of disjoint tangent horoballs obtained by
    greedy rejection sampling in the base box [0, side]^(dim-1), radii in
    [0.05, 1/2].

    The side is max(4, 2 count^(1/(dim-1))), so the box offers the same
    base volume 2^(dim-1) per ball in every dimension.  A candidate ball
    of radius r can only overlap a placed ball whose first base
    coordinate lies within r + 1/2 of its own, so it is tested against
    those alone, found by bisection in the placed balls kept sorted by
    that coordinate.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if dim < 2:
        raise ValueError("ambient dimension must be at least 2")
    rng = random.Random(seed)
    # through sqrt, so that dim 3 keeps its correctly rounded side
    side = max(4.0, 2.0 * math.sqrt(count) ** (2 / (dim - 1)))
    # covers the rounding of the float test and of the window ends
    pad = 1e-9 * side
    placed: list[TangentHoroball] = []
    by_x: list[TangentHoroball] = []      # the same balls sorted by base[0]
    first = lambda h: h.base[0]  # noqa: E731
    attempts = 0
    max_attempts = 400 * count
    while len(placed) < count:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError(
                f"could not place {count} disjoint horoballs "
                f"(placed {len(placed)} after {attempts} attempts)")
        base = tuple(rng.uniform(0.0, side) for _ in range(dim - 1))
        radius = rng.uniform(0.05, 0.5)
        reach = radius + 0.5 + pad
        near = by_x[bisect_left(by_x, base[0] - reach, key=first):
                    bisect_right(by_x, base[0] + reach, key=first)]
        if not any(vnorm2(vsub(base, other.base)) < 4 * radius * other.radius
                   for other in near):
            ball = TangentHoroball(base, radius)
            placed.append(ball)
            insort(by_x, ball, key=first)
    return HoroballFamily(dim, placed)

"""Abstract ball-uncovering engine for metric spaces.

Given a family of balls B(x_n, r_n) with uniformly bounded radii that
satisfies the quadratic packing condition r_n r_m <= D d(x_n, x_m)^2,
the scaled family B(x_n, s r_n) fails to cover the space whenever the
scale factor s stays below a threshold depending only on D and on how
well spheres extend in the space.  The engine makes that proof
executable: it produces a nested chain of "canonical balls" inscribed in
shadow annuli, each step certified by a containment assertion, whose
common center avoids every scaled ball.

The space enters only through a small capability record (distance,
geodesic interpolation, sphere extension with a modulus, a comparison
gauge, optional lines and antipodes), so Euclidean boxes and the
Heisenberg group run through the same code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .numeric import (
    DEFAULT_TOL,
    Certificate,
    CertificateError,
    certify,
    decide_le,
    golden_max,
    min_candidates,
    sweep_pairs,
    to_float,
    widen,
)

#: relative error of the dist of every space here, with room to spare:
#: 1e-16 for the Euclidean metric, below 5e-5 for heisenberg.cc_dist;
#: also the widening of every gauge bound (Gauge)
_DIST_REL_ERR = 1e-4

# ---------------------------------------------------------------------------
# capability record and ball family


@dataclass(frozen=True)
class Gauge:
    """Comparison metric rho of a space with rho <= dist <= C rho,
    evaluated as numpy passes over center columns.

    columns(points)   float array with one row per point.
    rho(P, Q)         rho(p, q) between the rows of P and Q (numpy
                      broadcasting, so one row meets many), formed from
                      the same coordinate differences, in the same float
                      operations, as the space's dist forms them.
    C                 the equivalence constant.

    The computed dist(p, q) then lies in [rho (1 - e), C rho (1 + e)]
    with e = _DIST_REL_ERR, which covers the error of dist and the
    rounding of rho; every filter of this module widens by it, so it
    drops only what the scalar test on dist drops, and the scalar test
    decides the rest.  rho never calls dist.
    """

    columns: Callable
    rho: Callable
    C: float = 1.0

    def bounds(self, P, Q):
        """(lo, hi) with lo <= dist <= hi for the computed dist between
        the rows of P and Q: rho (1 - e) and C rho (1 + e), each rounded
        once, which the relative slack of e over the errors absorbs."""
        r = self.rho(P, Q)
        return r * (1 - _DIST_REL_ERR), self.C * r * (1 + _DIST_REL_ERR)


@dataclass(frozen=True)
class UncoverSpace:
    """Metric capabilities needed by the uncovering loop.

    dist(p, q)                  metric.
    point_toward(p, q, lam)     point at distance lam from p on a geodesic
                                segment toward q (lam <= dist(p, q)).
    extend_sphere(c, near, r)   point on the sphere S(c, r); when
                                (1 - modulus(eps)) r <= dist(c, near) <= r it
                                must additionally satisfy
                                dist(near, result) <= eps * r.
    modulus(eps)                sphere-extendability modulus, (0, inf) -> (0, 1).
    gauge                       a Gauge: a vectorised metric rho with
                                rho <= dist <= gauge.C rho, the float
                                filter in front of every per-member and
                                per-pair pass over dist.
    has_lines                   through any two points passes a geodesic line.
    antipodes(c, r)             pair of points on S(c, r) at mutual distance
                                2r, or None when unavailable.
    """

    dist: Callable
    point_toward: Callable
    extend_sphere: Callable
    modulus: Callable[[float], float]
    gauge: Gauge
    has_lines: bool = False
    antipodes: Optional[Callable] = None

    def sphere_point(self, center, r):
        """Deterministic default point on S(center, r)."""
        if self.antipodes is None:
            raise ValueError("space exposes no default sphere direction")
        return self.antipodes(center, r)[0]


@dataclass
class BallFamily:
    """Balls (center, radius) in an UncoverSpace with packing constant D,
    and their gauge columns (centers) and float radii, built once."""

    space: UncoverSpace
    balls: list[tuple]
    D: float = 0.25
    centers: object = field(init=False, repr=False, compare=False)
    radius: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        import numpy as np
        hi = 0.5 if self.space.has_lines else 0.25
        if not 0 < self.D <= hi:
            raise ValueError(f"packing constant must lie in (0, {hi}]")
        self.radius = np.array([r for _, r in self.balls], dtype=float)
        if not (self.radius > 0).all():
            raise ValueError("radii must be positive")
        self.centers = self.space.gauge.columns([x for x, _ in self.balls])

    def validate_packing(self, tol: float = DEFAULT_TOL) -> list[tuple[int, int]]:
        """Sorted index pairs violating r_i r_j <= D d(x_i, x_j)^2 (within tol).

        Such a pair has d < (r_i + r_j) / (2 sqrt(D (1 + tol))), and
        rho <= d, so the gauge distance k_i = rho(x_0, x_i) to the first
        center (1-Lipschitz in rho, as rho is a metric) limits the pairs
        to those whose intervals k_i +- r_i / (2 sqrt(D (1 + tol))) meet,
        widened by _DIST_REL_ERR of r_i and of k_i (sweep_pairs).  A
        candidate pair with r_i r_j <= D lo^2 (1 + tol), lo <= d the
        gauge's lower bound (Gauge.bounds), holds in floats too, as
        rounding is monotone; dist decides the others.
        """
        import numpy as np
        dist, gauge = self.space.dist, self.space.gauge
        centers, radius = self.centers, self.radius
        keys = gauge.rho(centers[:1], centers)
        # 1 + tol <= 0 (or NaN) makes every pair a candidate
        scale = 1 / (2 * math.sqrt(self.D * min(1.0, 1 + tol))) if 1 + tol > 0 else math.inf
        with np.errstate(invalid="ignore"):
            half = (radius * scale + _DIST_REL_ERR * keys) / (1 - _DIST_REL_ERR)
        a, b = sweep_pairs(keys, half)
        if 1 + tol > 0:
            lo, _ = gauge.bounds(centers[a], centers[b])
            with np.errstate(over="ignore", invalid="ignore"):
                unsure = ~(radius[a] * radius[b] <= self.D * lo * lo * (1 + tol))
            a, b = a[unsure], b[unsure]
        bad = []
        for i, j in zip(a.tolist(), b.tolist()):
            (xi, ri), (xj, rj) = self.balls[i], self.balls[j]
            d = dist(xi, xj)
            if ri * rj > self.D * d * d * (1 + tol):
                bad.append((i, j))
        return sorted(bad)


# ---------------------------------------------------------------------------
# Euclidean instance


def _euc_dist(p, q):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def _euc_toward(p, q, lam):
    d = _euc_dist(p, q)
    if lam > d * (1 + 1e-12):
        raise ValueError("interpolation beyond the segment")
    if d == 0:
        return p
    f = lam / d
    return tuple(a + f * (b - a) for a, b in zip(p, q))


def _euc_extend(c, near, r):
    d = _euc_dist(c, near)
    if d == 0:
        raise ValueError("no direction to extend along")
    f = r / d
    return tuple(a + f * (b - a) for a, b in zip(c, near))


def _euc_antipodes(c, r):
    e1 = (r,) + (0.0,) * (len(c) - 1)
    return tuple(a + b for a, b in zip(c, e1)), tuple(a - b for a, b in zip(c, e1))


def _euc_rho(P, Q):
    import numpy as np
    return np.sqrt(((P - Q) ** 2).sum(axis=-1))


def euclidean_space(dim: int) -> UncoverSpace:
    """R^dim with its Euclidean metric; every pair of points lies on a
    line, so the identity modulus applies.  The gauge is the same norm
    over the coordinate columns (C = 1)."""
    if dim < 1:
        raise ValueError("dimension must be positive")

    def columns(points):
        import numpy as np
        return np.array(points, dtype=float).reshape(len(points), dim)

    return UncoverSpace(
        dist=_euc_dist,
        point_toward=_euc_toward,
        extend_sphere=_euc_extend,
        modulus=lambda eps: min(eps, 0.999999),
        gauge=Gauge(columns, _euc_rho),
        has_lines=True,
        antipodes=_euc_antipodes,
    )


# ---------------------------------------------------------------------------
# thresholds


def max_scale_for_load(load: float) -> float:
    """Largest scale factor s with load * (1+s)^2 <= 2 (1-s), i.e. the
    positive root (sqrt(4*load + 1) - load - 1) / load.

    Strictly decreasing, hits 0 at load = 2, lies in (0, 1) on (0, 2).
    """
    if not load > 0:
        raise ValueError("load must be positive")
    return (math.sqrt(4 * load + 1) - load - 1) / load


def safe_scale(D: float, modulus: Optional[Callable[[float], float]] = None,
               has_lines: bool = False) -> float:
    """Scale threshold below which the uncovering loop is guaranteed to
    succeed for packing constant D.

    With lines through any two points the closed form
    (sqrt(1 + 16 D) - 1 - 4 D) / (4 D) applies for D in (0, 1/2); with a
    sphere-extendability modulus the threshold is the supremum over eps
    of min(f(4D(1+eps)), f(4D(2-modulus(eps)))) with f = max_scale_for_load,
    computed by golden-section search (the objective is the minimum of a
    decreasing and an increasing function of eps, hence unimodal).
    """
    if has_lines:
        if not 0 < D < 0.5:
            raise ValueError("packing constant must lie in (0, 1/2) with lines")
        return (math.sqrt(1 + 16 * D) - 1 - 4 * D) / (4 * D)
    if not 0 < D <= 0.25:
        raise ValueError("packing constant must lie in (0, 1/4]")
    if modulus is None:
        raise ValueError("need a modulus without the line capability")
    _, best = _scale_search(D, modulus)
    return best


def _scale_search(D: float, modulus) -> tuple[float, float]:
    def objective(eps: float) -> float:
        return min(max_scale_for_load(4 * D * (1 + eps)),
                   max_scale_for_load(4 * D * (2 - modulus(eps))))

    return golden_max(objective, 1e-9, 1 - 1e-9)


def generic_shrink_time(C: float = 1.0,
                        modulus: Optional[Callable[[float], float]] = None,
                        a: float = 1.0, has_lines: bool = False) -> float:
    """Shrink time beyond which some geodesic from the distinguished
    boundary point avoids every uniformly shrunk horoball:
    -log(safe_scale(1/4) / (2 c_max C)) for a boundary metric that is
    C-equivalent to a length metric with the given sphere modulus, in
    curvature pinched in [-a^2, -1], where the shadow of a horoball of
    radius r lies in the ball of radius 2 c_max r, c_max = 2^(-1/a)."""
    if not C >= 1:  # also rejects NaN
        raise ValueError("equivalence constant must be at least 1")
    if not a >= 1:  # also rejects NaN
        raise ValueError("pinching parameter a must be >= 1")
    c_max = 2 ** (-1 / a)
    s0 = safe_scale(0.25, modulus, has_lines)
    return -math.log(s0 / (2 * c_max * C))


# ---------------------------------------------------------------------------
# canonical balls and the refinement step


@dataclass(frozen=True)
class AnnulusBall:
    """Ball of radius r(1-s)/2 inscribed in the annulus between the
    sphere S(x, r) of a member and its scaled ball B(x, s r): the element
    of every nested chain, the canonical balls of the uncovering loop and
    the maximal annulus balls of the sharp solver.  index is the member's
    index in its family."""

    center: object
    radius: object
    index: int = -1


def canonical_ball(space: UncoverSpace, xi, r2: float, r1: float, p,
                   index: int = -1, tol: float = DEFAULT_TOL) -> AnnulusBall:
    """Canonical ball for the annulus between radii r1 < r2 around xi,
    containing the sphere point p: center at distance (r2+r1)/2 from xi
    on the segment [p, xi], radius (r2-r1)/2."""
    if not 0 < r1 < r2:
        raise ValueError("need 0 < r1 < r2")
    d = space.dist(xi, p)
    if abs(d - r2) > tol * max(1.0, r2):
        raise ValueError(f"p is not on the sphere of radius {r2} (dist {d})")
    center = space.point_toward(p, xi, (r2 - r1) / 2)
    return AnnulusBall(center, (r2 - r1) / 2, index)


def refine_step(space: UncoverSpace, K: AnnulusBall, other: tuple, s: float,
                index: int = -1, tol: float = DEFAULT_TOL) -> Optional[AnnulusBall]:
    """One induction step: either K misses the scaled ball of `other`
    (returns None) or a canonical ball of `other` contained in K.

    other = (xi2, r2) must not out-radius K's generating ball and must
    satisfy the packing condition against it.  With eta = K.center, the
    touching point zeta on S(xi2, r2) is chosen by the distance split:
    for dist(xi2, eta) >= r2 along the segment toward eta; for smaller
    distances by sphere extension of eta (whose modulus bound is what the
    scale threshold encodes), or in the default direction when eta is the
    center itself.  Containment of the result in K is asserted, never
    trusted: a failure here means the scale factor was too close to the
    threshold or the packing contract was violated.
    """
    xi2, r2 = other
    eta = K.center
    d = space.dist(xi2, eta)
    if d > K.radius + s * r2 + tol:
        return None
    rnew = r2 * (1 - s) / 2
    mid = r2 * (1 + s) / 2
    if d >= r2:
        center = space.point_toward(xi2, eta, mid)
    else:
        zeta = (space.extend_sphere(xi2, eta, r2) if d > tol
                else space.sphere_point(xi2, r2))
        center = space.point_toward(xi2, zeta, mid)
    K2 = AnnulusBall(center, rnew, index)
    gap = space.dist(center, eta) + rnew - K.radius
    if gap > tol:
        raise CertificateError(
            f"refined ball not contained (excess {gap:.3e}); "
            "scale too close to the threshold or packing violated")
    return K2


# ---------------------------------------------------------------------------
# the scan driver


@dataclass
class NestedWitness:
    """Chain of canonical balls certifying the output point.

    chain entries are (position in the radius-sorted scan order, ball);
    positions increase strictly, each ball is contained in the previous
    one, and the output is the center of the last ball.  index on each
    ball records the index into the original family.
    """

    chain: list[tuple[int, AnnulusBall]]
    output: object
    certificate: Certificate


def scan_order(radius, start: Optional[int], tol: float, near: Callable,
               exact=None) -> tuple[int, object]:
    """Seed row and scan order (a numpy array of rows) of a family whose
    radii are the float array radius, one per row.

    The seed is `start`, or the largest member with ties going to the
    lowest row.  The others are kept when their radius is at most the
    seed's (plus tol) and their distance to the seed is at most three
    times the largest radius sup, since no farther scaled ball can meet
    the seed's ball, and are sorted by non-increasing radius (ties by
    row).  near(seed, 3 sup, rows) is the mask of the distance test over
    the rows that pass the radius test, and is called once.

    exact, given where the floats only round the radii (correctly, so
    that their order is the exact order wherever they differ), has
    radii(rows), the exact radii as a list, and same_radii(a, b), the
    mask of equal radii over two arrays of rows; they decide the order
    between equal floats and the radius test near the threshold.
    """
    import numpy as np
    order = np.lexsort((np.arange(len(radius)), -radius))
    if exact is not None:
        order = _exact_ties(order, radius, exact)
    a0 = int(order[0]) if start is None else start
    value = exact.radii if exact is not None else lambda rows: radius[rows].tolist()
    r0, sup = value([a0, order[0]])
    cap = r0 + tol
    err = 0 if exact is None else widen(radius + abs(to_float(cap)))
    keep = decide_le(radius, to_float(cap), err,
                     lambda rows: [r <= cap for r in value(rows)])
    keep[a0] = False
    rows = order[keep[order]]
    return a0, rows[near(a0, 3 * sup, rows)]


def _exact_ties(order, radius, exact):
    """order (rows by non-increasing float radius, ties by row) with each
    run of equal floats whose exact radii differ sorted exactly."""
    import numpy as np
    r = radius[order]
    starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
    ends = np.r_[starts[1:], len(order)]
    first = order[np.repeat(starts, ends - starts)]
    differ = np.flatnonzero(~exact.same_radii(order, first))
    split = np.flatnonzero(np.bincount(np.searchsorted(starts, differ, side="right") - 1,
                                       minlength=len(starts)))
    order = order.copy()
    for k in split.tolist():
        run = order[starts[k]:ends[k]].tolist()
        ranked = sorted(zip(exact.radii(run), run), key=lambda vr: (-vr[0], vr[1]))
        order[starts[k]:ends[k]] = [row for _, row in ranked]
    return order


def scan_chain(K, order: Sequence[int], step: Callable,
               may_meet: Callable) -> list[tuple[int, object]]:
    """Nested chain from the seed ball K: the scan visits the members in
    order and step(K, j) returns the refinement of the current ball
    against member j, or None when member j misses it.  Entries are
    (scan position, ball), with the seed at position 0.

    may_meet(K, begin) is a filter: a boolean numpy mask over
    order[begin:] that is false only at members for which step(K, j)
    returns None.  Each time K changes it runs once over the rest of the
    order, and the step runs on the members it leaves alone, so the
    chain is the same as a scan that steps every member."""
    chain = [(0, K)]
    begin = 0
    while begin < len(order):
        for pos in (begin + may_meet(K, begin).nonzero()[0]).tolist():
            K2 = step(K, order[pos])
            if K2 is not None:
                chain.append((pos + 1, K2))
                K, begin = K2, pos + 1
                break
        else:
            break
    return chain


def _prepare(fam: BallFamily, s: float, start: Optional[int], tol: float):
    """Seed and scan order of a ball family, after checking the scale
    factor and that a user start ball is large enough to seed the loop.
    The 3 sup distance test reads the gauge, and dist decides where the
    bound lies between the gauge's bounds."""
    space = fam.space
    balls = fam.balls
    s0 = safe_scale(fam.D, space.modulus, space.has_lines)
    if not 0 <= s < s0:
        raise ValueError(f"scale factor {s} not below the threshold {s0:.6g}")
    if not balls:
        raise ValueError("empty family")
    if start is not None:
        sup = max(r for _, r in balls)
        eps = 1 - (1 + s) * math.sqrt(fam.D)
        if balls[start][1] < (1 - eps) * sup - tol:
            raise ValueError(
                f"start ball {start} too small to seed the loop "
                f"(need radius >= {(1 - eps) * sup:.6g})")

    def near(a0, bound, rows):
        lo, hi = space.gauge.bounds(fam.centers[rows], fam.centers[a0])
        return decide_le((lo + hi) / 2, bound, (hi - lo) / 2 + widen(hi + bound),
                         lambda pos: [space.dist(balls[i][0], balls[a0][0]) <= bound
                                      for i in rows[pos].tolist()])

    a0, order = scan_order(fam.radius, start, tol, near)
    return a0, order.tolist()


def _run(fam: BallFamily, s: float, a0: int, order: Sequence[int],
         seed_point, tol: float) -> NestedWitness:
    """Chain from the seed point, and the certificate of its output.

    The scan's filter drops member j where the gauge's lower bound on
    dist(x_j, K.center) exceeds K.radius + s r_j + tol, summed as
    refine_step sums it, so refine_step would return None there.  The
    certificate checks dist only at the members whose margin, bracketed
    by the gauge, may be the least (min_candidates)."""
    import numpy as np
    space, gauge = fam.space, fam.space.gauge
    balls, centers = fam.balls, fam.centers
    rows = np.array(order, dtype=np.intp)
    # a Fraction s times a float radius is float(s) times it
    scaled = float(s) * fam.radius
    x0, r0 = balls[a0]

    def may_meet(K, begin):
        lo, _ = gauge.bounds(centers[rows[begin:]], gauge.columns([K.center]))
        with np.errstate(invalid="ignore"):
            return ~(lo > K.radius + scaled[rows[begin:]] + tol)

    K = canonical_ball(space, x0, r0, s * r0, seed_point, index=a0, tol=tol)
    chain = scan_chain(K, order, lambda ball, j: refine_step(
        space, ball, balls[j], s, index=j, tol=tol), may_meet)
    out = chain[-1][1].center
    lo, hi = gauge.bounds(gauge.columns([out]), centers)
    picks = min_candidates((lo + hi) / 2 - scaled, (hi - lo) / 2 + widen(hi + scaled))
    margins = {i: space.dist(out, balls[i][0]) - s * balls[i][1] for i in picks.tolist()}
    return NestedWitness(chain, out, certify(margins, tol, len(balls)))


def uncover(fam: BallFamily, s: float, start: Optional[int] = None,
            tol: float = DEFAULT_TOL) -> NestedWitness:
    """Point avoiding every open scaled ball B(x_n, s r_n), as a nested
    ball witness.

    Requires s < safe_scale(D).  The loop normalizes to the largest ball
    (or a user start whose radius qualifies), prunes balls that cannot
    interfere with the seed, scans the rest by non-increasing radius
    (ties by input index) and refines against the first scaled ball the
    current canonical ball meets.  The output certificate
    dist(output, x_n) >= s r_n - tol is checked exhaustively and kept on
    the witness.
    """
    a0, order = _prepare(fam, s, start, tol)
    x0, r0 = fam.balls[a0]
    return _run(fam, s, a0, order, fam.space.sphere_point(x0, r0), tol)


def uncover_two(fam: BallFamily, s: float, start: Optional[int] = None,
                tol: float = DEFAULT_TOL) -> tuple[NestedWitness, NestedWitness]:
    """Two avoiding points from antipodal seeds on the start sphere; their
    mutual distance is at least s times the start radius."""
    space = fam.space
    if space.antipodes is None:
        raise ValueError("space does not expose antipodal sphere points")
    a0, order = _prepare(fam, s, start, tol)
    x0, r0 = fam.balls[a0]
    w1, w2 = (_run(fam, s, a0, order, p, tol) for p in space.antipodes(x0, r0))
    if space.dist(w1.output, w2.output) < s * r0 - tol:
        raise CertificateError("antipodal outputs too close")
    return w1, w2

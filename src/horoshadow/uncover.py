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
geodesic interpolation, sphere extension with a modulus, optional lines
and antipodes), so Euclidean boxes and the Heisenberg group run through
the same code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .numeric import DEFAULT_TOL, Certificate, CertificateError, certify, golden_max

# ---------------------------------------------------------------------------
# capability record and ball family


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
    has_lines                   through any two points passes a geodesic line.
    antipodes(c, r)             pair of points on S(c, r) at mutual distance
                                2r, or None when unavailable.
    """

    dist: Callable
    point_toward: Callable
    extend_sphere: Callable
    modulus: Callable[[float], float]
    has_lines: bool = False
    antipodes: Optional[Callable] = None

    def sphere_point(self, center, r):
        """Deterministic default point on S(center, r)."""
        if self.antipodes is None:
            raise ValueError("space exposes no default sphere direction")
        return self.antipodes(center, r)[0]


@dataclass
class BallFamily:
    """Balls (center, radius) in an UncoverSpace with packing constant D."""

    space: UncoverSpace
    balls: list[tuple]
    D: float = 0.25

    def __post_init__(self):
        hi = 0.5 if self.space.has_lines else 0.25
        if not 0 < self.D <= hi:
            raise ValueError(f"packing constant must lie in (0, {hi}]")
        for _, r in self.balls:
            if not r > 0:
                raise ValueError("radii must be positive")

    def validate_packing(self, tol: float = DEFAULT_TOL) -> list[tuple[int, int]]:
        """Index pairs violating r_i r_j <= D d(x_i, x_j)^2 (within tol)."""
        bad = []
        for i in range(len(self.balls)):
            xi, ri = self.balls[i]
            for j in range(i + 1, len(self.balls)):
                xj, rj = self.balls[j]
                d = self.space.dist(xi, xj)
                if ri * rj > self.D * d * d * (1 + tol):
                    bad.append((i, j))
        return bad


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


def euclidean_space(dim: int) -> UncoverSpace:
    """R^dim with its Euclidean metric; every pair of points lies on a
    line, so the identity modulus applies."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    return UncoverSpace(
        dist=_euc_dist,
        point_toward=_euc_toward,
        extend_sphere=_euc_extend,
        modulus=lambda eps: min(eps, 0.999999),
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
                        c_max: float = 0.5, has_lines: bool = False) -> float:
    """Shrink time beyond which some geodesic from the distinguished
    boundary point avoids every uniformly shrunk horoball:
    -log(safe_scale(1/4) / (2 c_max C)) for a boundary metric that is
    C-equivalent to a length metric with the given sphere modulus."""
    if C < 1:
        raise ValueError("equivalence constant must be at least 1")
    if not c_max > 0:
        raise ValueError("c_max must be positive")
    s0 = safe_scale(0.25, modulus, has_lines)
    return -math.log(s0 / (2 * c_max * C))


# ---------------------------------------------------------------------------
# canonical balls and the refinement step


@dataclass(frozen=True)
class CanonicalBall:
    """Ball of radius r(1-s)/2 inscribed in the annulus between the
    sphere S(x, r) and the scaled ball B(x, s r), touching the outer
    sphere at a prescribed point."""

    center: object
    radius: float
    annulus_of: int = -1
    s: float = 0.0


def canonical_ball(space: UncoverSpace, xi, r2: float, r1: float, p,
                   index: int = -1, tol: float = DEFAULT_TOL) -> CanonicalBall:
    """Canonical ball for the annulus between radii r1 < r2 around xi,
    containing the sphere point p: center at distance (r2+r1)/2 from xi
    on the segment [p, xi], radius (r2-r1)/2."""
    if not 0 < r1 < r2:
        raise ValueError("need 0 < r1 < r2")
    d = space.dist(xi, p)
    if abs(d - r2) > tol * max(1.0, r2):
        raise ValueError(f"p is not on the sphere of radius {r2} (dist {d})")
    center = space.point_toward(p, xi, (r2 - r1) / 2)
    return CanonicalBall(center, (r2 - r1) / 2, index, r1 / r2)


def refine_step(space: UncoverSpace, K: CanonicalBall, other: tuple, s: float,
                index: int = -1,
                tol: float = DEFAULT_TOL) -> Optional[CanonicalBall]:
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
    K2 = CanonicalBall(center, rnew, index, s)
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
    one, and the output is the center of the last ball.  annulus_of on
    each ball records the index into the original family.
    """

    chain: list[tuple[int, CanonicalBall]]
    output: object
    certificate: Certificate


def scan_order(radii: dict, dist: Callable, start: Optional[int],
               tol: float) -> tuple[int, list]:
    """Seed index and scan order of a family given as {index: radius}.

    The seed is `start` (which must be a key of radii), or the largest
    member with ties going to the lowest index.  The others are kept
    when their radius is at most the seed's (plus tol) and dist(i, seed)
    is at most three times the largest radius, since no farther scaled
    ball can meet the seed's ball, and are sorted by non-increasing
    radius (ties by index).  dist is only called on members that pass
    the radius test.
    """
    a0 = max(radii, key=lambda i: (radii[i], -i)) if start is None else start
    r0 = radii[a0]
    sup = max(radii.values())
    keep = [i for i, r in radii.items()
            if i != a0 and r <= r0 + tol and dist(i, a0) <= 3 * sup]
    keep.sort(key=lambda i: (-radii[i], i))
    return a0, keep


def scan_chain(K, order: Sequence[int], step: Callable) -> list[tuple[int, object]]:
    """Nested chain from the seed ball K: the scan visits the members in
    order and step(K, j) returns the refinement of the current ball
    against member j, or None when member j misses it.  Entries are
    (scan position, ball), with the seed at position 0."""
    chain = [(0, K)]
    for pos, j in enumerate(order, start=1):
        K2 = step(K, j)
        if K2 is not None:
            chain.append((pos, K2))
            K = K2
    return chain


def _prepare(fam: BallFamily, s: float, start: Optional[int], tol: float):
    """Seed and scan order of a ball family, after checking the scale
    factor and that a user start ball is large enough to seed the loop."""
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
    return scan_order({i: r for i, (_, r) in enumerate(balls)},
                      lambda i, j: space.dist(balls[i][0], balls[j][0]),
                      start, tol)


def _run(fam: BallFamily, s: float, a0: int, order: Sequence[int],
         seed_point, tol: float) -> NestedWitness:
    space = fam.space
    balls = fam.balls
    x0, r0 = balls[a0]
    K = canonical_ball(space, x0, r0, s * r0, seed_point, index=a0, tol=tol)
    chain = scan_chain(K, order, lambda ball, j: refine_step(
        space, ball, balls[j], s, index=j, tol=tol))
    out = chain[-1][1].center
    margins = {i: space.dist(out, xi) - s * ri for i, (xi, ri) in enumerate(balls)}
    return NestedWitness(chain, out, certify(margins, tol))


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

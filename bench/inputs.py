"""Seeded input builders for the benchmark workloads.

Each builder draws from a `random.Random` seeded by the workload seed,
so one seed always gives the same inputs.  The builders avoid the
generators they feed: the Ford family and the Farey size formula are
computed independently of `horoshadow.packings`.
"""

from __future__ import annotations

import random
from fractions import Fraction

from horoshadow.halfspace import AtInfinityHoroball, Point, TangentHoroball, point_to_horoball_dist
from horoshadow.heisenberg import HeisPoint, cygan_dist
from horoshadow.packings import HoroballFamily

# ---------------------------------------------------------------------------
# schedules


def ladder(rng: random.Random, sizes: tuple):
    """Endless job sizes in seeded blocks, each block one permutation of
    all sizes, so that every run sees each size about equally often
    whatever the seed."""
    while True:
        block = list(sizes)
        rng.shuffle(block)
        yield from block


# ---------------------------------------------------------------------------
# Farey family size


def farey_size(q_max: int) -> int:
    """Number of reduced fractions in [0, 1] with denominator <= q_max:
    1 + sum of Euler's phi(q) for q <= q_max (totient sieve)."""
    phi = list(range(q_max + 1))
    for p in range(2, q_max + 1):
        if phi[p] == p:  # p is prime
            for m in range(p, q_max + 1, p):
                phi[m] -= phi[m] // p
    return 1 + sum(phi[1:])


# ---------------------------------------------------------------------------
# Ford spheres over the Gaussian integers


def gauss_mul(x: tuple, y: tuple) -> tuple:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gauss_norm(x: tuple) -> int:
    return x[0] * x[0] + x[1] * x[1]


def _round_div(num: int, den: int) -> int:
    return (2 * num + den) // (2 * den)


def gauss_gcd(x: tuple, y: tuple) -> tuple:
    """A greatest common divisor of two Gaussian integers (Euclid with
    nearest-integer quotients, which shrink the norm at least by half)."""
    while y != (0, 0):
        n = gauss_norm(y)
        z = gauss_mul(x, (y[0], -y[1]))
        q = (_round_div(z[0], n), _round_div(z[1], n))
        qy = gauss_mul(q, y)
        x, y = y, (x[0] - qy[0], x[1] - qy[1])
    return x


def ford_fractions(norm_max: int) -> list[tuple[tuple, tuple]]:
    """Reduced Gaussian fractions p/q in the closed unit square with
    |q|^2 <= norm_max, as (p, q) pairs with q in the first quadrant
    (re q > 0, im q >= 0: one associate per class), by |q|^2 then p."""
    if norm_max < 1:
        raise ValueError("norm_max must be at least 1")
    out = []
    qs = [(a, b) for a in range(1, norm_max + 1) for b in range(0, norm_max + 1)
          if a * a + b * b <= norm_max]
    qs.sort(key=lambda q: (gauss_norm(q), q))
    for q in qs:
        a, b = q
        n = gauss_norm(q)
        # p = q w with w in [0, 1]^2 spans re in [-b, a], im in [0, a + b]
        for c in range(-b, a + 1):
            for d in range(0, a + b + 1):
                z = gauss_mul((c, d), (a, -b))  # p conj(q) = (p/q) |q|^2
                if not (0 <= z[0] <= n and 0 <= z[1] <= n):
                    continue
                if gauss_norm(gauss_gcd((c, d), q)) != 1:
                    continue
                out.append(((c, d), q))
    return out


def ford_family(norm_max: int, include_infinity: bool = True) -> HoroballFamily:
    """Ford spheres of the Picard packing in upper half-space H^3: the
    horoball at p/q has radius 1/(2|q|^2), with exact Fraction base
    coordinates; optionally the horoball at infinity of height 1.

    Two members are disjoint because |p/q - p'/q'|^2 >= 1/(|q|^2 |q'|^2)
    is |p q' - p' q|^2 >= 1, true for a nonzero Gaussian integer.
    """
    balls = []
    labels = []
    for p, q in ford_fractions(norm_max):
        n = gauss_norm(q)
        z = gauss_mul(p, (q[0], -q[1]))
        balls.append(TangentHoroball((Fraction(z[0], n), Fraction(z[1], n)),
                                     Fraction(1, 2 * n)))
        labels.append(f"({p[0]}{p[1]:+d}i)/({q[0]}{q[1]:+d}i)")
    if include_infinity:
        balls.append(AtInfinityHoroball(1))
        labels.append("inf")
    return HoroballFamily(3, balls, labels)


# ---------------------------------------------------------------------------
# ray base points


def ray_base_point(fam: HoroballFamily, rng: random.Random, box: list[tuple],
                   heights: tuple, margin: float = 0.05) -> Point:
    """Seeded interior point with base in `box` (one (lo, hi) per
    boundary coordinate) and height in `heights`, at hyperbolic distance
    at least `margin` outside every horoball of the family."""
    for _ in range(10_000):
        base = tuple(rng.uniform(lo, hi) for lo, hi in box)
        x = Point(base, rng.uniform(*heights))
        if min(point_to_horoball_dist(x, h) for h in fam.horoballs) >= margin:
            return x
    raise RuntimeError("no ray base point outside the family")


def point_arg(x: Point) -> str:
    """The CLI's `base;height` form of a point, digits round-tripping."""
    return ",".join(repr(float(c)) for c in x.base) + ";" + repr(float(x.height))


# ---------------------------------------------------------------------------
# Heisenberg ball families


def heisenberg_balls(rng: random.Random, count: int,
                     radii: tuple = (0.05, 0.5)) -> list[tuple[HeisPoint, float]]:
    """Seeded balls (center, radius) in the Heisenberg group with
    r r' <= d_Cyg(x, x')^2 / 4 for every pair, by rejection sampling in a
    box whose Haar volume grows linearly with `count`.  Since
    d_CC >= d_Cyg this gives the packing condition r r' <= d_CC^2 / 4
    that the uncovering engine needs with D = 1/4.
    """
    side = 1.2 * count ** 0.25
    balls: list[tuple[HeisPoint, float]] = []
    for _ in range(200 * count):
        if len(balls) == count:
            return balls
        x = HeisPoint(complex(rng.uniform(0, side), rng.uniform(0, side)),
                      rng.uniform(-side * side, side * side))
        r = rng.uniform(*radii)
        if all(r * r2 <= cygan_dist(x, x2) ** 2 / 4 for x2, r2 in balls):
            balls.append((x, r))
    raise RuntimeError(f"placed {len(balls)} of {count} Heisenberg balls")


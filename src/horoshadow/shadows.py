"""Shadows of horoballs seen from infinity and their radii.

With the point at infinity as the distinguished boundary point and the
reference horosphere at Euclidean height 1, the boundary distance equals
the Euclidean distance on R^(n-1).  The shadow of a horoball disjoint
from the reference horoball is then sandwiched between two balls whose
radii have closed forms in the separation d between the horoballs:
inner radius e^(-d)/2, outer radius 2^(-1/a) e^(-d) when the curvature
is pinched between -a^2 and -1.  In constant curvature (a = 1) the two
coincide and the shadow is exactly the Euclidean ball of the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .halfspace import (
    AtInfinityHoroball,
    Horoball,
    Point,
    TangentHoroball,
    hyperbolic_dist,
    point_to_horoball_dist,
    vnorm2,
    vsub,
)
from .numeric import DEFAULT_TOL

REFERENCE_HEIGHT = 1


@dataclass(frozen=True)
class CurvatureBand:
    """Curvature pinched in [-a^2, -1]."""

    a: float = 1.0

    def __post_init__(self):
        if self.a < 1:
            raise ValueError("pinching parameter a must be >= 1")


@dataclass(frozen=True)
class Shadow:
    center: tuple
    inner_radius: float
    outer_radius: float

    def __post_init__(self):
        if self.inner_radius > self.outer_radius:
            raise ValueError("inner radius exceeds outer radius")


def shadow_of(h: Horoball, band: CurvatureBand = CurvatureBand()) -> Shadow:
    """Shadow of a tangent horoball seen from infinity.

    Requires 2r <= 1 so the open horoball is disjoint from the open
    reference horoball above height 1.  Inner radius equals the tangency
    radius r; outer radius is 2^(1 - 1/a) * r.
    """
    if isinstance(h, AtInfinityHoroball):
        raise ValueError("the horoball at infinity casts no shadow from infinity")
    if 2 * h.radius > REFERENCE_HEIGHT:
        raise ValueError("horoball not disjoint from the reference horoball")
    if band.a == 1:
        # constant curvature: the shadow is exactly the model ball
        return Shadow(h.base, h.radius, h.radius)
    outer = 2 ** (1 - 1 / band.a) * float(h.radius)
    return Shadow(h.base, h.radius, outer)


def hamenstadt_dist_points(x: Point, y: Point) -> float:
    """Boundary-distance surrogate for interior points,
    exp(-(d(x,Href) + d(y,Href) - d(x,y)) / 2); as both points descend
    vertically to boundary points it converges to their Euclidean gap."""
    dx = point_to_horoball_dist(x, AtInfinityHoroball(REFERENCE_HEIGHT))
    dy = point_to_horoball_dist(y, AtInfinityHoroball(REFERENCE_HEIGHT))
    return math.exp(-0.5 * (dx + dy - hyperbolic_dist(x, y)))


@dataclass(frozen=True)
class QuadraticSeparation:
    lhs: float
    rhs: float
    holds: bool
    tangent: bool


def quadratic_separation(h1: TangentHoroball, h2: TangentHoroball,
                         tol: float = DEFAULT_TOL) -> QuadraticSeparation:
    """Certificate |x - x'|^2 >= 4 r r' for disjointness of the open
    horoballs; equality (within tol, relative to the rhs) is tangency.

    Exact on Fraction input with tol = 0.
    """
    if all(a == b for a, b in zip(h1.base, h2.base)):
        raise ValueError("horoballs share their base point")
    lhs = vnorm2(vsub(h1.base, h2.base))
    rhs = 4 * h1.radius * h2.radius
    tangent = abs(lhs - rhs) <= tol * rhs
    return QuadraticSeparation(lhs, rhs, lhs >= rhs or tangent, tangent)


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

from dataclasses import dataclass

from .halfspace import AtInfinityHoroball, Horoball

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


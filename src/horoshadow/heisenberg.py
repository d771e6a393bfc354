"""Heisenberg group with the Cygan and Carnot-Caratheodory metrics.

Points are (zeta, v) in C x R with the product
(zeta, v)(zeta', v') = (zeta + zeta', v + v' + 2 Im(zeta conj(zeta'))).
The Cygan gauge N(zeta, v) = (|zeta|^4 + v^2)^(1/4) induces a
left-invariant distance whose associated length distance is the
Carnot-Caratheodory distance: the infimum of Euclidean lengths of
horizontal paths, i.e. planar paths whose vertical coordinate moves by
v' = 2 (y x' - x y').  Unit-speed CC geodesics from the identity project
to circular arcs in the plane (straight segments when v = 0), which
gives the distance by a single one-dimensional root find.

Dilations (zeta, v) -> (t zeta, t^2 v) scale both distances by t and
give sphere extension with modulus delta(eps) = 1 - (1 + eps^2/pi)^(-1/2),
making (H, d_CC) an admissible space for the uncovering engine.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .numeric import bisect_increasing
from .uncover import UncoverSpace, generic_shrink_time

TWO_PI = 2 * math.pi

#: Cygan-to-CC equivalence constant: d_Cyg <= d_CC <= sqrt(pi) d_Cyg
CC_EQUIVALENCE = math.sqrt(math.pi)


@dataclass(frozen=True)
class HeisPoint:
    zeta: complex
    v: float

    def __post_init__(self):
        object.__setattr__(self, "zeta", complex(self.zeta))
        object.__setattr__(self, "v", float(self.v))


IDENTITY = HeisPoint(0, 0)


def heis_mul(a: HeisPoint, b: HeisPoint) -> HeisPoint:
    return HeisPoint(a.zeta + b.zeta,
                     a.v + b.v + 2 * (a.zeta * b.zeta.conjugate()).imag)


def heis_inv(a: HeisPoint) -> HeisPoint:
    return HeisPoint(-a.zeta, -a.v)


def cygan_norm(a: HeisPoint) -> float:
    return (abs(a.zeta) ** 4 + a.v ** 2) ** 0.25


def cygan_dist(a: HeisPoint, b: HeisPoint) -> float:
    return cygan_norm(heis_mul(heis_inv(a), b))


def dilate(a: HeisPoint, t: float) -> HeisPoint:
    """Group automorphism (zeta, v) -> (t zeta, t^2 v); scales the Cygan
    and CC distances by t."""
    if not t > 0:
        raise ValueError("dilation factor must be positive")
    return HeisPoint(t * a.zeta, t * t * a.v)


# ---------------------------------------------------------------------------
# CC geodesics from the identity


def _arc_angle(R: float, v: float) -> float:
    """Swept angle theta in (0, 2 pi) of the arc from 0 to a point at
    planar distance R with vertical holonomy v, solving
    (theta - sin theta) / (2 sin^2(theta/2)) = |v| / R^2 (increasing)."""
    target = abs(v) / (R * R)

    def h(th: float) -> float:
        s = math.sin(th / 2)
        return (th - math.sin(th)) / (2 * s * s)

    return bisect_increasing(h, 1e-9, TWO_PI - 1e-9, target)


def _geodesic_data(g: HeisPoint):
    """(length, point_at) for a unit-speed CC geodesic from the identity
    to g; point_at(lam) takes an arclength in [0, length]."""
    R = abs(g.zeta)
    v = g.v
    if R < 1e-300 and abs(v) < 1e-300:
        return 0.0, lambda lam: IDENTITY
    if abs(v) <= 1e-15 * R * R:
        # straight horizontal segment
        L = R

        def at_line(lam: float) -> HeisPoint:
            return HeisPoint(g.zeta * (lam / L), 0.0)

        return L, at_line
    sigma = -1.0 if v > 0 else 1.0
    if R < 1e-14 * math.sqrt(abs(v)):
        # pure vertical displacement: a full circle of area |v|/4
        rho = math.sqrt(abs(v) / (4 * math.pi))
        theta = TWO_PI
        c = complex(rho, 0.0)
    else:
        theta = _arc_angle(R, v)
        rho = R / (2 * math.sin(theta / 2))
        c = g.zeta / (1 - cmath.exp(1j * sigma * theta))
    L = rho * theta

    def at_arc(lam: float) -> HeisPoint:
        phi = theta * lam / L
        z = c * (1 - cmath.exp(1j * sigma * phi))
        vv = -2 * sigma * rho * rho * (phi - math.sin(phi))
        return HeisPoint(z, vv)

    return L, at_arc


def cc_dist(a: HeisPoint, b: HeisPoint) -> float:
    """Carnot-Caratheodory distance, exact up to the 1e-13 bracket of the
    root find for the arc angle.

    Always within [cygan_dist, sqrt(pi) * cygan_dist]; a purely vertical
    displacement saturates the upper bound, a purely horizontal one the
    lower.
    """
    L, _ = _geodesic_data(heis_mul(heis_inv(a), b))
    return L


def cc_point_toward(a: HeisPoint, b: HeisPoint, lam: float) -> HeisPoint:
    """Point at CC distance lam from a on a CC geodesic toward b."""
    g = heis_mul(heis_inv(a), b)
    L, at = _geodesic_data(g)
    if lam < 0 or lam > L * (1 + 1e-9):
        raise ValueError("interpolation beyond the segment")
    return heis_mul(a, at(min(lam, L)))


def heis_modulus(eps: float) -> float:
    """Sphere-extendability modulus of (H, d_CC) coming from dilations:
    1 - (1 + eps^2 / pi)^(-1/2)."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    return 1 - (1 + eps * eps / math.pi) ** -0.5


def extend_sphere_cc(x: HeisPoint, y: HeisPoint, r: float) -> HeisPoint:
    """Dilation of y about x onto the CC sphere S(x, r): the point
    x * dilate(x^-1 y, r / d_CC(x, y)).

    Whenever (1 - heis_modulus(eps)) r <= d_CC(x, y) <= r the output
    stays within eps * r of y.
    """
    if not r > 0:
        raise ValueError("radius must be positive")
    g = heis_mul(heis_inv(x), y)
    alpha = cc_dist(IDENTITY, g)
    if alpha == 0:
        raise ValueError("cannot extend from the center itself")
    return heis_mul(x, dilate(g, r / alpha))


def _antipodes(c: HeisPoint, r: float) -> tuple[HeisPoint, HeisPoint]:
    # horizontal lines are CC geodesics, so +-r along one gives a
    # diameter of the sphere S(c, r)
    return heis_mul(c, HeisPoint(r, 0)), heis_mul(c, HeisPoint(-r, 0))


def heisenberg_space() -> UncoverSpace:
    """(H, d_CC) packaged for the uncovering engine."""
    return UncoverSpace(
        dist=cc_dist,
        point_toward=cc_point_toward,
        extend_sphere=extend_sphere_cc,
        modulus=heis_modulus,
        has_lines=False,
        antipodes=_antipodes,
    )


def complex_hyperbolic_shrink_time() -> float:
    """Shrink time for horoball families in complex hyperbolic 2-space:
    the boundary minus a point is the Heisenberg group, the boundary
    distance is sqrt(pi)-equivalent to d_CC, and the outer shadow
    constant is 2^(-1/2); numerically about 4.9157."""
    return generic_shrink_time(C=CC_EQUIVALENCE, modulus=heis_modulus,
                               c_max=2 ** -0.5)

"""Sharp solver in any dimension via maximal annulus balls and rotation.

The planar constant survives in higher dimensions: a maximal Euclidean
ball K inscribed in a shadow annulus either misses a scaled shadow or,
after rotating the offending center about K's center into the line
through the annulus center and K's center, the planar interval step
(sharp2d.step_2d) applies on that line and the resulting ball rotates
back into K.  All of this is plain Euclidean geometry in the boundary
R^(n-1), on coordinate tuples in the arithmetic of the inputs: on the
line (planar families) no rotation happens and Fractions stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import sharp2d
from .halfspace import TangentHoroball, vadd, vdot, vnorm, vscale, vsub
from .numeric import DEFAULT_TOL, CertificateError
from .packings import HoroballFamily
from .sharp2d import Solution, solve_sharp

#: below this sine of the rotation angle the configuration counts as
#: collinear and the rotation (ill-conditioned there) is skipped
COLLINEAR_SIN = 1e-12


@dataclass(frozen=True)
class AnnulusBall:
    """Maximal Euclidean ball of a shadow annulus: radius r(1-s)/2 with
    center at distance r(1+s)/2 from the shadow center."""

    center: tuple
    radius: object
    horoball_index: int = -1


def maximal_annulus_ball(h: TangentHoroball, s: float, direction,
                         index: int = -1) -> AnnulusBall:
    """Maximal ball of the annulus of h at scale s touching the outer
    sphere in the given unit direction."""
    if not 0 < s < 1:
        raise ValueError("scale factor must lie in (0, 1)")
    if abs(vnorm(direction) - 1) > 1e-9:
        raise ValueError("direction must be a unit vector")
    r = h.radius
    return AnnulusBall(vadd(h.base, vscale(direction, r * (1 + s) / 2)),
                       r * (1 - s) / 2, index)


def step_hnr(parent: TangentHoroball, K: AnnulusBall, other: TangentHoroball,
             s: float, index: int = -1,
             tol: float = DEFAULT_TOL) -> Optional[AnnulusBall]:
    """Dimension-reduction step: None when K misses the scaled shadow of
    `other`; otherwise a maximal annulus ball of `other` inside K.

    With x the parent shadow center, y = K.center and x2 the other
    center, x2 is rotated in the plane spanned by (y - x) and (x2 - y)
    about y onto the line through x and y, on the far side of y; the
    interval step (sharp2d.step_2d) runs on that line and the resulting
    ball center rotates back.  Collinear configurations (every planar
    one, and x2 = y) skip the rotation.  Containment in K is asserted.
    """
    x, y, x2, r2 = parent.base, K.center, other.base, other.radius
    w = vsub(x2, y)
    nw = vnorm(w)
    if nw > K.radius + s * r2 + tol:
        return None
    d = vsub(y, x)
    nu = vnorm(d)
    if nu == 0:
        raise ValueError("annulus ball centered at the shadow center")
    u = _over(d, nu)
    # other center at y (any line through y works) or already on the
    # line through x and y: use that axis line; otherwise rotate x2
    # about y onto the line, beyond y as seen from x
    straight = nw <= tol or vnorm(vsub(w, vscale(u, vdot(w, u)))) <= COLLINEAR_SIN * nw
    b2_line = vdot(vsub(x2, x), u) if straight else nu + nw
    C = sharp2d.step_2d((nu - K.radius, nu + K.radius), b2_line, r2, s, index, tol)
    if C is None:
        return None
    coord = (C[0] + C[1]) / 2
    # rotate the 1-D answer back: u maps to the unit vector from y
    # toward x2, and the answer lies on the rotated line
    center = (vadd(x, vscale(u, coord)) if straight
              else vadd(y, vscale(_over(w, nw), coord - nu)))
    K2 = AnnulusBall(center, r2 * (1 - s) / 2, index)
    gap = vnorm(vsub(K2.center, y)) + K2.radius - K.radius
    if gap > tol:
        raise CertificateError(
            f"rotated annulus ball not contained (excess {float(gap):.3e})")
    return K2


def _over(v: tuple, n) -> tuple:
    """v / n by coordinates, so that a unit vector on the line is
    exactly +-1."""
    return tuple(c / n for c in v)


def solve_hnr(fam: HoroballFamily, s: float, start: Optional[int] = None,
              direction=None, tol: float = DEFAULT_TOL) -> Solution:
    """Boundary point in R^(n-1) whose vertical geodesic avoids every open
    scaled horoball: sharp2d.solve_sharp from the maximal annulus ball of
    the start horoball in the direction (the first axis by default) by
    step_hnr.  Antipodal directions give endpoints s r0 or more apart."""
    hs = fam.horoballs
    if direction is None:
        direction = (1,) + (0,) * (fam.dim - 2)
    return solve_sharp(fam, s, start,
                       lambda a0: maximal_annulus_ball(hs[a0], s, direction, a0),
                       lambda ball, j: step_hnr(hs[ball.horoball_index], ball, hs[j],
                                                s, index=j, tol=tol), tol)

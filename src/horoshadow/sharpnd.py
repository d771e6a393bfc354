"""Sharp solver in any dimension via maximal annulus balls and rotation.

The planar constant survives in higher dimensions: a maximal Euclidean
ball K inscribed in a shadow annulus either misses a scaled shadow or,
after rotating the offending center about K's center into the line
through the annulus center and K's center, the planar interval step
applies on that line and the resulting ball rotates back into K.  All of
this is plain Euclidean geometry in the boundary R^(n-1).

numpy is imported inside the functions that use it, so importing the
package (and the CLI) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .halfspace import TangentHoroball
from .numeric import DEFAULT_TOL, CertificateError, certify
from .packings import HoroballFamily
from .sharp2d import Solution, checked_items, fit_component
from .uncover import scan_chain, scan_order

#: below this sine of the rotation angle the configuration counts as
#: collinear and the rotation (ill-conditioned there) is skipped
COLLINEAR_SIN = 1e-12


@dataclass(frozen=True)
class AnnulusBall:
    """Maximal Euclidean ball of a shadow annulus: radius r(1-s)/2 with
    center at distance r(1+s)/2 from the shadow center."""

    center: tuple
    radius: float
    horoball_index: int = -1

    @property
    def c(self):
        import numpy as np
        return np.asarray(self.center, dtype=float)


def maximal_annulus_ball(h: TangentHoroball, s: float, direction,
                         index: int = -1) -> AnnulusBall:
    """Maximal ball of the annulus of h at scale s touching the outer
    sphere in the given unit direction."""
    import numpy as np
    if not 0 < s < 1:
        raise ValueError("scale factor must lie in (0, 1)")
    u = np.asarray(direction, dtype=float)
    n = np.linalg.norm(u)
    if abs(n - 1) > 1e-9:
        raise ValueError("direction must be a unit vector")
    b = np.asarray(h.base, dtype=float)
    r = float(h.radius)
    center = b + u * (r * (1 + s) / 2)
    return AnnulusBall(tuple(map(float, center)), r * (1 - s) / 2, index)


def step_hnr(parent: TangentHoroball, K: AnnulusBall, other: TangentHoroball,
             s: float, index: int = -1,
             tol: float = DEFAULT_TOL) -> Optional[AnnulusBall]:
    """Dimension-reduction step: None when K misses the scaled shadow of
    `other`; otherwise a maximal annulus ball of `other` inside K.

    With x the parent shadow center, y = K.center and x2 the other
    center, x2 is rotated in the plane spanned by (y - x) and (x2 - y)
    about y onto the line through x and y, on the far side of y; the
    planar step runs on that line and the resulting ball center rotates
    back.  Collinear configurations (and x2 = y) skip the rotation.
    Containment in K is asserted.
    """
    import numpy as np
    x = np.asarray(parent.base, dtype=float)
    y = K.c
    x2 = np.asarray(other.base, dtype=float)
    r2 = float(other.radius)
    d_scaled = np.linalg.norm(x2 - y)
    if d_scaled > K.radius + s * r2 + tol:
        return None
    u = y - x
    nu = float(np.linalg.norm(u))
    if nu == 0:
        raise ValueError("annulus ball centered at the shadow center")
    u = u / nu
    w = x2 - y
    nw = np.linalg.norm(w)
    # other center at y (any line through y works) or already on the
    # line through x and y: use that axis line; otherwise rotate x2
    # about y onto the line, beyond y as seen from x
    straight = nw <= tol
    if not straight:
        wperp = w - float(np.dot(w, u)) * u
        straight = np.linalg.norm(wperp) <= COLLINEAR_SIN * nw
    b2_line = float(np.dot(x2 - x, u)) if straight else nu + nw
    C = fit_component((nu - K.radius, nu + K.radius), b2_line, r2, s, index, tol)
    if C is None:
        return None
    coord = C.midpoint
    # rotate the 1-D answer back: u maps to the unit vector from y
    # toward x2, and the answer lies on the rotated line
    center = x + coord * u if straight else y + (coord - nu) * (w / nw)
    K2 = AnnulusBall(tuple(map(float, center)), r2 * (1 - s) / 2, index)
    gap = float(np.linalg.norm(K2.c - y)) + K2.radius - K.radius
    if gap > tol:
        raise CertificateError(
            f"rotated annulus ball not contained (excess {gap:.3e})")
    return K2


def solve_hnr(fam: HoroballFamily, s: float, start: Optional[int] = None,
              direction=None, tol: float = DEFAULT_TOL) -> Solution:
    """Boundary point in R^(n-1) whose vertical geodesic avoids every open
    scaled horoball; the planar solver's scan (uncover.scan_order) with
    annulus balls, each step reduced to the line by step_hnr.

    Antipodal seed directions produce endpoints at distance at least
    s times the start radius.  The avoidance certificate
    |endpoint - b_n| >= s r_n - tol is checked for every tangent member.
    """
    import numpy as np
    items = checked_items(fam, s, start)
    hs = fam.horoballs
    if direction is None:
        direction = (1.0,) + (0.0,) * (fam.dim - 2)
    radii = {i: float(h.radius) for i, h in items}
    base = dict(zip(radii, np.asarray([h.base for _, h in items], dtype=float)))
    a0, order = scan_order(radii, lambda i, j: np.linalg.norm(base[i] - base[j]),
                           start, tol)
    chain = scan_chain(maximal_annulus_ball(hs[a0], s, direction, a0), order,
                       lambda ball, j: step_hnr(hs[ball.horoball_index], ball, hs[j],
                                                s, index=j, tol=tol))
    endpoint = chain[-1][1].c
    cert = certify({i: float(np.linalg.norm(endpoint - base[i]) - s * radii[i])
                    for i in radii}, tol)
    if np.linalg.norm(endpoint - base[a0]) > radii[a0] + tol:
        raise CertificateError("endpoint escaped the start shadow")
    return Solution(tuple(map(float, endpoint)), [K for _, K in chain], a0, s, cert)

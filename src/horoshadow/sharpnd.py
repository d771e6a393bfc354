"""Sharp solver in any dimension via maximal annulus balls and rotation.

The planar constant survives in higher dimensions: a maximal Euclidean
ball K inscribed in a shadow annulus either misses a scaled shadow or,
after rotating the offending center about K's center into the line
through the annulus center and K's center, the planar interval step
(sharp2d.step_2d) applies on that line and the resulting ball rotates
back into K.  All of this is plain Euclidean geometry in the boundary
R^(n-1), on coordinate tuples in the arithmetic of the inputs: on the
line (planar families) no rotation happens and Fractions stay exact.
solve_hnr is the one sharp solver; sharp2d.solve_2d runs it on planar
families.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Optional

from . import sharp2d
from .halfspace import TangentHoroball, sq_norms, vadd, vdot, vnorm, vscale, vsub
from .numeric import (
    DEFAULT_TOL,
    SHARP_SCALE,
    CertificateError,
    certify,
    decide_le,
    may_be_le,
    min_candidates,
    to_float,
    widen,
)
from .packings import HoroballFamily
from .sharp2d import Solution
from .uncover import AnnulusBall, scan_chain, scan_order

#: below this sine of the rotation angle the configuration counts as
#: collinear and the rotation (ill-conditioned there) is skipped
COLLINEAR_SIN = 1e-12


def maximal_annulus_ball(h: TangentHoroball, s: float, direction,
                         index: int = -1) -> AnnulusBall:
    """Maximal ball of the annulus of h at scale s touching the outer
    sphere in the given unit direction: radius r(1-s)/2 with center at
    distance r(1+s)/2 from the shadow center."""
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
    scaled horoball: the nested chain of maximal annulus balls from the
    one of the start horoball (the largest by default) in the direction
    (the first axis by default), each by step_hnr, and its endpoint, the
    center of the last ball, with its certificate.  Antipodal directions
    give endpoints s r0 or more apart.

    The scan (uncover.scan_order, on the radius column) visits the
    tangent members within 3 sup of a0 (start, or the largest member)
    by non-increasing radius, ties by index; members at infinity are
    left out, as no geodesic from infinity avoids them.
    Each time K shrinks, one float pass (may_meet) over the rest of the
    order leaves the members whose scaled shadow may meet it, and the
    step decides on those.  The certificate |endpoint - b_i| >= s r_i - tol
    holds for every tangent member, checked on those a float pass
    (margin_bounds) leaves, and the endpoint lies in the start shadow.
    Member objects are built only for the members a scalar test reads.
    """
    if isinstance(s, Fraction):  # exact: s <= 4 sqrt(2) - 5 iff (s + 5)^2 <= 32
        in_range, top = 0 < s and (s + 5) ** 2 <= 32, "4*sqrt(2)-5"
    else:  # SHARP_SCALE is 4 sqrt(2) - 5 rounded
        in_range, top = 0 < s <= SHARP_SCALE * (1 + 1e-12), SHARP_SCALE
    if not in_range:
        raise ValueError(f"scale factor must lie in (0, {top}]")
    hs, cols = fam.horoballs, fam.columns
    if not len(cols.tangent):
        raise ValueError("no tangent horoballs to solve against")
    row0 = None
    if start is not None:
        row0 = int(cols.tangent.searchsorted(start))
        if row0 == len(cols.tangent) or cols.tangent[row0] != start:
            raise ValueError("start index is not a tangent horoball")
    dist, near = _distances(fam)
    a0, rows = scan_order(cols.radius, row0, tol, near, None if fam.exact is None else fam)
    a0 = int(cols.tangent[a0])
    if direction is None:
        direction = (1,) + (0,) * (fam.dim - 2)
    srs = to_float(s) * cols.radius
    xo, sro = cols.base[rows], srs[rows]
    chain = scan_chain(maximal_annulus_ball(hs[a0], s, direction, a0),
                       cols.tangent[rows].tolist(),
                       lambda K, j: step_hnr(hs[K.index], K, hs[j], s, index=j, tol=tol),
                       lambda K, begin: may_meet(K, xo[begin:], sro[begin:], tol))
    endpoint = chain[-1][1].center
    near_rows = min_candidates(*margin_bounds(endpoint, cols.base, srs))
    cert = certify({i: dist(endpoint, i) - s * hs[i].radius
                    for i in cols.tangent[near_rows].tolist()}, tol, len(cols.tangent))
    if dist(endpoint, a0) > hs[a0].radius + tol:
        raise CertificateError("endpoint escaped the start shadow")
    return Solution(endpoint, [K for _, K in chain], a0, cert)


def _distances(fam: HoroballFamily) -> tuple:
    """dist(p, i) = |p - b_i| for a point p (a tuple), exact on the line
    and a float beyond (halfspace.vnorm), and near(a, bound, rows), the
    mask of dist(b_a, row) <= bound over tangent rows: one float pass,
    decided by dist on the rows where the floats do not settle it."""
    import numpy as np
    hs, cols = fam.horoballs, fam.columns

    def dist(p, i):
        return vnorm(vsub(p, hs[i].base))

    def near(a, bound, rows):
        gap = functools.reduce(np.hypot, np.abs(cols.base[rows] - cols.base[a]).T)
        err = 0 if fam.exact is None else widen(
            np.abs(cols.base[rows]).sum(1) + np.abs(cols.base[a]).sum() + abs(to_float(bound)))
        t = cols.tangent
        return decide_le(gap, to_float(bound), err, lambda pos: [
            dist(hs[t[a]].base, i) <= bound for i in t[rows[pos]].tolist()])
    return dist, near


def margin_bounds(e, bases, sr) -> tuple:
    """Float margins |e - b| - sr of a point e (a tuple) against shadows
    centered at the rows of bases with scaled radii sr (float arrays),
    and a bound on their error that covers the conversion of exact
    values too, as |e| + |b| <= 2|e| + |e - b|."""
    import numpy as np
    ef = np.array([to_float(c) for c in e])
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.sqrt(sq_norms(bases - ef))
        return gap - sr, widen(gap + sr + 2 * np.abs(ef).sum())


def may_meet(K, bases, sr, tol):
    """Float filter in front of the step: a mask over the shadows of
    margin_bounds, false only where a shadow misses the ball K (by its
    center and radius) by more than tol, so that the step is None."""
    import numpy as np
    approx, err = margin_bounds(K.center, bases, sr)
    reach = to_float(K.radius) + to_float(tol)
    with np.errstate(invalid="ignore"):  # inf - inf past the square range keeps the member
        return may_be_le(approx - err, reach, reach)

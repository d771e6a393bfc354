"""Sharp interval dichotomy on the boundary line of the hyperbolic
plane, and the pipeline of the sharp solver (sharpnd.solve_hnr), which
planar families run along the line.

For horoballs tangent to the real line the complement of a scaled shadow
inside the full shadow consists of two closed intervals.  As long as the
scale factor stays at or below 4*sqrt(2) - 5 (the positive root of
s^2 + 10 s - 7), whenever a scaled shadow meets the current interval one
of its two annulus components fits entirely inside it, so a nested
interval chain pins down an endpoint whose vertical geodesic avoids
every scaled horoball.  The threshold is sharp: the extremal binary-tree
packing tiles each component with the shadows of two maximal children.
step_2d is that dichotomy; sharpnd.step_hnr calls it on the line it
rotates each step onto, and a planar step is one on the line itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional

from .halfspace import sq_norms, vnorm, vsub
from .numeric import (
    DEFAULT_TOL,
    SHARP_SCALE,
    Certificate,
    CertificateError,
    certify,
    decide_le,
    may_be_le,
    min_candidates,
    to_float,
    widen,
)
from .packings import HoroballFamily
from .uncover import scan_chain, scan_order


class Side(Enum):
    LEFT = "L"
    RIGHT = "R"


def sharp_shrink_time(a: float = 1.0) -> float:
    """Sharp uniform shrink time for surfaces with curvature pinched in
    [-a^2, -1]; at a = 1 it equals -log(4 sqrt(2) - 5).

    e^(-time) is 2^(2/a) (sqrt(1 + 2^(1-1/a)) - 1 - 2^(-1-1/a)), capped
    by 1 - 2^(-2/a) once a >= 2; increases to infinity with a.
    """
    if a < 1:
        raise ValueError("pinching parameter a must be >= 1")
    em = 2 ** (2 / a) * (math.sqrt(1 + 2 ** (1 - 1 / a)) - 1 - 2 ** (-1 - 1 / a))
    if a >= 2:
        em = min(em, 1 - 2 ** (-2 / a))
    return -math.log(em)


def step_2d(interval: tuple, b, r, s, index: int = -1,
            tol: float = DEFAULT_TOL) -> Optional[tuple]:
    """Interval dichotomy on a line: None when the scaled shadow
    [b - s r, b + s r] misses the interval; otherwise the annulus
    component of the shadow of radius r at b that lies in the interval,
    the one with the larger margin to its ends (ties going right).

    A failure to contain either component signals a scale factor above
    the sharp threshold or an invalid family, and raises.
    """
    lo, hi = interval
    if b + s * r < lo - tol or b - s * r > hi + tol:
        return None
    best = None
    for c_lo, c_hi in ((b - r, b - s * r), (b + s * r, b + r)):
        if c_lo >= lo - tol and c_hi <= hi + tol:
            margin = min(c_lo - lo, hi - c_hi)
            if best is None or margin >= best[0]:
                best = (margin, (c_lo, c_hi))
    if best is None:
        raise CertificateError(
            f"no annulus component of horoball {index} fits in {interval}; "
            "scale above the sharp threshold or family invalid")
    return best[1]


@dataclass
class Solution:
    """Output of a sharp solver: the endpoint (a tuple in R^(n-1)), the
    witness chain, the seed member and the avoidance certificate."""

    endpoint: tuple
    witness: list
    start_index: int
    certificate: Certificate


def solve_2d(fam: HoroballFamily, s, start: Optional[int] = None,
             side: Side = Side.RIGHT, tol: float = DEFAULT_TOL) -> Solution:
    """Boundary point whose vertical geodesic avoids every open scaled
    horoball of a planar family: sharpnd.solve_hnr along -1 or +1 from
    the start horoball (largest by default), whose steps are step_2d on
    the line, in the arithmetic of the family and of s."""
    if fam.dim != 2:
        raise ValueError("the interval solver needs a planar family")
    from .sharpnd import solve_hnr
    return solve_hnr(fam, s, start, (1,) if side is Side.RIGHT else (-1,), tol)


def solve_sharp(fam: HoroballFamily, s, start: Optional[int], seed: Callable,
                step: Callable, tol) -> Solution:
    """Nested chain of balls (each with a center tuple and a radius)
    from seed(a0) by step(K, j), and its endpoint, the center of the
    last ball, with its certificate.

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
    if not 0 < s <= SHARP_SCALE * (1 + 1e-12):
        raise ValueError(f"scale factor must lie in (0, {SHARP_SCALE}]")
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
    srs = to_float(s) * cols.radius
    xo, sro = cols.base[rows], srs[rows]
    chain = scan_chain(seed(a0), cols.tangent[rows].tolist(), step,
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


def scaled_shadow_residual(fam: HoroballFamily, s,
                           window: tuple) -> list[tuple]:
    """Closure of window minus the union of the open scaled shadows, as a
    list of disjoint closed intervals (left to right).

    This is the exact uncovered set a line solver at scale s has to work
    with; the sharpness of SHARP_SCALE shows up as this residual
    collapsing inside a seed component once s exceeds it.
    """
    lo, hi = window
    spans = []
    for _, h in fam.tangent_items():
        b, r = h.base[0], h.radius
        a, b2 = b - s * r, b + s * r
        if b2 <= lo or a >= hi:
            continue
        spans.append((max(a, lo), min(b2, hi)))
    spans.sort()
    out = []
    cur = lo
    for a, b2 in spans:
        if a > cur:
            out.append((cur, a))
        cur = max(cur, b2)
    if cur < hi:
        out.append((cur, hi))
    return out


def dioph_solutions(xi: float, t: float, q_max: int) -> list[Fraction]:
    """All reduced fractions p/q with q <= q_max approximating xi within
    e^(-t) / (2 q^2); equivalently the vertical geodesic at xi meets the
    open horoball tangent at p/q shrunk by time t."""
    if q_max < 1:
        raise ValueError("q_max must be at least 1")
    if t < 0:
        raise ValueError("shrink time must be nonnegative")
    bound = math.exp(-t)
    out = []
    for q in range(1, q_max + 1):
        p = round(xi * q)
        # |xi - p/q| < bound / (2 q^2), with p the nearest integer the
        # only candidate since bound <= 1
        if 2 * q * abs(xi * q - p) < bound and math.gcd(p, q) == 1:
            out.append(Fraction(p, q))
    return out

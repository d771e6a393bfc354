"""Sharp interval dichotomy on the boundary line of the hyperbolic
plane, which the sharp solver (sharpnd.solve_hnr) runs on planar
families along the line.

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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .numeric import DEFAULT_TOL, Certificate, CertificateError

if TYPE_CHECKING:  # annotations only
    from .packings import HoroballFamily


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
             direction=None, tol: float = DEFAULT_TOL) -> Solution:
    """sharpnd.solve_hnr on a planar family, whose steps are step_2d on
    the line, in the arithmetic of the family and of s; the direction
    is (-1,) or (+1,)."""
    if fam.dim != 2:
        raise ValueError("the interval solver needs a planar family")
    from . import sharpnd
    return sharpnd.solve_hnr(fam, s, start, direction, tol)


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

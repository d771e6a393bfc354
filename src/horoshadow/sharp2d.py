"""Sharp interval solver on the boundary line of the hyperbolic plane.

For horoballs tangent to the real line the complement of a scaled shadow
inside the full shadow consists of two closed intervals.  As long as the
scale factor stays at or below 4*sqrt(2) - 5 (the positive root of
s^2 + 10 s - 7), whenever a scaled shadow meets the current interval one
of its two annulus components fits entirely inside it, so a nested
interval chain pins down an endpoint whose vertical geodesic avoids
every scaled horoball.  The threshold is sharp: the extremal binary-tree
packing tiles each component with the shadows of two maximal children.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .halfspace import TangentHoroball
from .numeric import (
    DEFAULT_TOL,
    SHARP_SCALE,
    Certificate,
    CertificateError,
    certify,
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


@dataclass(frozen=True)
class IntervalComponent:
    """One of the two components of a shadow annulus on the line."""

    interval: tuple
    horoball_index: int
    side: Side

    @property
    def lo(self):
        return self.interval[0]

    @property
    def hi(self):
        return self.interval[1]

    @property
    def midpoint(self):
        return (self.interval[0] + self.interval[1]) / 2


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


def component_of(h: TangentHoroball, s, side: Side,
                 index: int = -1) -> IntervalComponent:
    """The annulus component [b - r, b - s r] or [b + s r, b + r] of the
    shadow of h on the given side."""
    if not 0 < s < 1:
        raise ValueError("scale factor must lie in (0, 1)")
    b, r = h.base[0], h.radius
    if side is Side.LEFT:
        return IntervalComponent((b - r, b - s * r), index, side)
    return IntervalComponent((b + s * r, b + r), index, side)


def fit_component(interval: tuple, b, r, s, index: int = -1,
                  tol: float = DEFAULT_TOL) -> Optional[IntervalComponent]:
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
    for side, c_lo, c_hi in ((Side.LEFT, b - r, b - s * r),
                             (Side.RIGHT, b + s * r, b + r)):
        if c_lo >= lo - tol and c_hi <= hi + tol:
            margin = min(c_lo - lo, hi - c_hi)
            if best is None or margin >= best[0]:
                best = (margin, IntervalComponent((c_lo, c_hi), index, side))
    if best is None:
        raise CertificateError(
            f"no annulus component of horoball {index} fits in {interval}; "
            "scale above the sharp threshold or family invalid")
    return best[1]


def may_meet_line(interval: tuple, b, sr, tol):
    """Float filter in front of fit_component: a mask over shadows
    centered at b with scaled radii sr (float arrays, s r converted) that
    is false only where [b - sr, b + sr] misses the interval widened by
    tol, that is where fit_component returns None."""
    import numpy as np
    tf = to_float(tol)
    lo, hi = to_float(interval[0]) - tf, to_float(interval[1]) + tf
    with np.errstate(over="ignore", invalid="ignore"):
        mag = abs(b) + sr + tf
        return may_be_le(lo, b + sr, mag + abs(lo)) & may_be_le(b - sr, hi, mag + abs(hi))


def line_margins(e, b, sr) -> tuple:
    """Float margins |e - b| - sr of a point e on the line against the
    shadows centered at b with scaled radii sr (float arrays, converted
    from exact values), with a bound on their error."""
    import numpy as np
    ef = to_float(e)
    with np.errstate(over="ignore", invalid="ignore"):
        return abs(ef - b) - sr, widen(abs(ef) + abs(b) + sr)


def step_2d(K: IntervalComponent, h2: TangentHoroball, s,
            index: int = -1, tol: float = DEFAULT_TOL
            ) -> Optional[IntervalComponent]:
    """Interval dichotomy step against h2 on the boundary line (see
    fit_component)."""
    return fit_component(K.interval, h2.base[0], h2.radius, s, index, tol)


@dataclass
class Solution:
    """Output of a sharp solver: the endpoint (a number on the line, a
    tuple in R^(n-1)), the witness chain, the seed member, the scale and
    the avoidance certificate."""

    endpoint: object
    witness: list
    start_index: int
    scale: float
    certificate: Certificate


def checked_items(fam: HoroballFamily, s, start: Optional[int]) -> list:
    """The tangent members of fam as (index, horoball) pairs, after the
    checks both sharp solvers open with: s in (0, SHARP_SCALE], at least
    one tangent member, and start (when given) the index of one."""
    if not 0 < s <= SHARP_SCALE * (1 + 1e-12):
        raise ValueError(f"scale factor must lie in (0, {SHARP_SCALE}]")
    items = fam.tangent_items()
    if not items:
        raise ValueError("no tangent horoballs to solve against")
    if start is not None and start not in dict(items):
        raise ValueError("start index is not a tangent horoball")
    return items


def solve_2d(fam: HoroballFamily, s, start: Optional[int] = None,
             side: Side = Side.RIGHT, tol: float = DEFAULT_TOL) -> Solution:
    """Boundary point whose vertical geodesic avoids every open scaled
    horoball of a planar family, by nested annulus components.

    The scan (uncover.scan_order) runs over tangent members by
    non-increasing radius (ties by input index), seeded at the chosen
    side component of the start horoball (largest by default); members
    at infinity are skipped, as no geodesic from infinity can avoid
    them.  Each time the interval shrinks, one float pass over the rest
    of the order (may_be_le) leaves the members whose scaled shadow may
    meet it, and step_2d decides on those.  The returned endpoint is the
    midpoint of the final interval; the avoidance certificate
    |endpoint - b_n| >= s r_n - tol is checked against every tangent
    member, exactly on the members a float pass (min_candidates) leaves.
    """
    if fam.dim != 2:
        raise ValueError("the interval solver needs a planar family")
    items = checked_items(fam, s, start)
    hs = fam.horoballs
    radii = {i: h.radius for i, h in items}
    base = {i: h.base[0] for i, h in items}
    a0, order = scan_order(radii, lambda j: lambda i: abs(base[i] - base[j]),
                           start, tol)
    b0, r0 = base[a0], radii[a0]
    cols = fam.columns
    xs, srs = cols.base[:, 0], to_float(s) * cols.radius
    rows = cols.tangent.searchsorted(order)
    xo, sro = xs[rows], srs[rows]
    chain = scan_chain(component_of(hs[a0], s, side, a0), order,
                       lambda K, j: step_2d(K, hs[j], s, index=j, tol=tol),
                       lambda K, begin: may_meet_line(K.interval, xo[begin:],
                                                      sro[begin:], tol))
    endpoint = chain[-1][1].midpoint
    near = min_candidates(*line_margins(endpoint, xs, srs))
    cert = certify({i: abs(endpoint - base[i]) - s * radii[i]
                    for i in cols.tangent[near].tolist()}, tol, len(radii))
    if not (b0 - r0 - tol <= endpoint <= b0 + r0 + tol):
        raise CertificateError("endpoint escaped the start shadow")
    return Solution(endpoint, [K for _, K in chain], a0, s, cert)


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

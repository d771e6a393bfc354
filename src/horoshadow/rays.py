"""Geodesic rays and bi-infinite lines avoiding uniformly shrunk horoballs.

The sharp solvers produce boundary endpoints whose vertical geodesics
avoid scaled shadows.  Two glue constants transfer those endpoints to
geodesics with prescribed behaviour at a finite point or in both
directions: the union of rays grazing a horoball and converging to a
boundary point stays in the log(2 + sqrt(5))-neighborhood of any one of
them, and in an ideal triangle each side lies within log(1 + sqrt(2)) of
the other two.  Running the solver with the shrink time reduced by the
relevant constant therefore leaves room to swing the geodesic around,
and every construction below re-verifies its output against the full
family by closed-form penetration depths instead of trusting that
transfer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .halfspace import (
    INF,
    ArcGeodesic,
    AtInfinityHoroball,
    Geodesic,
    Horoball,
    Point,
    TangentHoroball,
    VerticalGeodesic,
    geodesic_through,
    invert_boundary,
    invert_horoball,
    param_of,
    penetration_depth,
    penetration_interval,
    point_to_horoball_dist,
    shrink,
    vadd,
    vnorm2,
    vscale,
    vsub,
)
from .numeric import DEFAULT_TOL, CertificateError
from .packings import HoroballFamily
from .sharp2d import Side, solve_2d
from .sharpnd import solve_hnr

#: neighborhood constant for the cone of rays grazing a horoball
CONE_CONSTANT = math.log(2 + math.sqrt(5))
#: neighborhood constant for sides of an ideal triangle
TRIANGLE_CONSTANT = math.log(1 + math.sqrt(2))


def glue_constants() -> dict:
    return {"cone": CONE_CONSTANT, "triangle": TRIANGLE_CONSTANT}


@dataclass
class AvoidanceReport:
    """Per-horoball maximal penetration depths of a geodesic into the
    family shrunk by t; ok iff every depth stays below tolerance."""

    geodesic: Geodesic
    max_depths: list[tuple[int, float]]
    ok: bool
    margin: float


def verify_avoidance(g: Geodesic, fam: HoroballFamily, t: float,
                     tol: float = DEFAULT_TOL) -> AvoidanceReport:
    depths = [(i, penetration_depth(g, shrink(h, t)))
              for i, h in enumerate(fam.horoballs)]
    worst = max(d for _, d in depths) if depths else -INF
    return AvoidanceReport(g, depths, worst <= tol, -worst)


@dataclass
class RayResult:
    ray: Geodesic
    report: AvoidanceReport
    nearest_index: int
    nearest_clear: bool
    endpoint: Optional[tuple]


@dataclass
class LineResult:
    line: ArcGeodesic
    report: AvoidanceReport
    endpoints: tuple


def _first_hit_after(g: Geodesic, t_x: float, forward: bool,
                     fam: HoroballFamily, skip: int,
                     tol: float) -> Optional[int]:
    """Index of the first horoball the sub-ray of g starting at t_x
    (toward +inf when forward) penetrates beyond depth tol, or None."""
    best = None
    for i, h in enumerate(fam.horoballs):
        if i == skip:
            continue
        span = penetration_interval(g, h)
        if span is None:
            continue
        t_in, t_out = span
        if forward:
            if t_out <= t_x:
                continue
            entry = max(t_in, t_x) - t_x
            sub = g.restricted(max(t_in, t_x), t_out)
        else:
            if t_in >= t_x:
                continue
            entry = t_x - min(t_out, t_x)
            sub = g.restricted(t_in, min(t_out, t_x))
        if penetration_depth(sub, h) <= tol:
            continue
        if best is None or entry < best[1]:
            best = (i, entry)
    return None if best is None else best[0]


def _solver_endpoint(fam: HoroballFamily, s: float, start: Optional[int],
                     side: Side, tol: float) -> tuple:
    if fam.dim == 2:
        sol = solve_2d(fam, s, start=start, side=side, tol=tol)
        return (sol.endpoint,)
    direction = [0.0] * (fam.dim - 1)
    direction[0] = 1.0 if side is Side.RIGHT else -1.0
    sol = solve_hnr(fam, s, start=start, direction=tuple(direction), tol=tol)
    return sol.endpoint


def ray_from_point(fam: HoroballFamily, x: Point, t: float,
                   tol: float = DEFAULT_TOL) -> RayResult:
    """Geodesic ray from x avoiding every horoball shrunk by t.

    Guaranteed for t above the sharp shrink time plus the cone constant;
    smaller t is attempted and fails loudly.  The recipe: take the
    geodesic from the boundary point of the nearest horoball through x;
    if its continuation past x hits nothing, that continuation is the
    ray.  Otherwise send that boundary point to infinity by an inversion,
    run the sharp solver seeded at the first horoball hit with scale
    e^-(t - cone), and aim the ray from x at the endpoint mapped back.
    The result is re-verified at shrink t against the whole family, and
    against the unshrunk nearest horoball.
    """
    dists = [point_to_horoball_dist(x, h) for h in fam.horoballs]
    if not dists:
        raise ValueError("empty family")
    if min(dists) < -tol:
        raise ValueError("start point lies inside an open horoball")
    n0 = dists.index(min(dists))
    h0 = fam.horoballs[n0]
    at_inf = isinstance(h0, AtInfinityHoroball)
    xi0 = None if at_inf else h0.base
    g = geodesic_through(x, xi0)
    t_x = param_of(g, x)
    # travel away from xi0: vertical geodesics are oriented upward, so a
    # ray from infinity descends
    forward = not isinstance(g, VerticalGeodesic)
    n1 = _first_hit_after(g, t_x, forward, fam, n0, tol)
    if n1 is None:
        if forward:
            ray = g.restricted(t_x, INF)
            endpoint = g.b
        else:
            ray = g.restricted(-INF, t_x)
            endpoint = g.foot
    else:
        s = math.exp(-(t - CONE_CONSTANT))
        if at_inf:
            mapped = fam
            eta = _solver_endpoint(mapped, s, n1, Side.RIGHT, tol)
            target = eta
        else:
            mapped = HoroballFamily(
                fam.dim, [invert_horoball(h, xi0) for h in fam.horoballs])
            eta = _solver_endpoint(mapped, s, n1, Side.RIGHT, tol)
            n2 = vnorm2(eta)
            if n2 <= tol * tol:
                target = None  # endpoint maps back to infinity
            else:
                target = vadd(xi0, vscale(eta, 1 / n2))
        if target is None:
            ray = VerticalGeodesic(x.base, (math.log(x.height), INF))
            endpoint = None
        else:
            g2 = geodesic_through(x, target)
            if isinstance(g2, VerticalGeodesic):
                # target directly below x: descend
                ray = g2.restricted(-INF, math.log(x.height))
            else:
                toward = ArcGeodesic(g2.b, g2.a)  # orient toward target
                ray = toward.restricted(param_of(toward, x), INF)
            endpoint = target
    report = verify_avoidance(ray, fam, t, tol)
    nearest_clear = penetration_depth(ray, h0) <= tol
    return RayResult(ray, report, n0, nearest_clear, endpoint)


def biinfinite_line(fam: HoroballFamily, t: float,
                    tol: float = DEFAULT_TOL) -> LineResult:
    """Bi-infinite geodesic avoiding every horoball shrunk by t.

    Guaranteed for t above the sharp shrink time plus the ideal-triangle
    constant.  The sharp solver runs twice from antipodal seeds of the
    largest horoball at scale e^-(t - triangle); the geodesic between the
    two endpoints avoids the shrunk family in both directions, and stays
    below the reference height because both endpoints lie in one shadow.
    """
    s = math.exp(-(t - TRIANGLE_CONSTANT))
    eta = _solver_endpoint(fam, s, None, Side.LEFT, tol)
    eta2 = _solver_endpoint(fam, s, None, Side.RIGHT, tol)
    if vnorm2(vsub(eta, eta2)) <= tol * tol:
        raise CertificateError("degenerate family: coincident endpoints")
    line = ArcGeodesic(eta, eta2)
    report = verify_avoidance(line, fam, t, tol)
    return LineResult(line, report, (eta, eta2))

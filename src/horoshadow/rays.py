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
from fractions import Fraction
from typing import Optional

from .halfspace import (
    _TINY,
    INF,
    ArcGeodesic,
    AtInfinityHoroball,
    Geodesic,
    Point,
    TangentHoroball,
    VerticalGeodesic,
    geodesic_through,
    param_of,
    penetration_depth,
    penetrations,
    point_to_horoball_dist,
    point_to_horoball_dists,
    vadd,
    vnorm2,
    vscale,
    vsub,
)
from .numeric import DEFAULT_TOL, CertificateError, min_candidates, unit_exponent
from .packings import HoroballFamily, Ratios, _int_decide, _ratio_floats, int_column, square_gap
from .sharp2d import solve_2d
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
    """Depths of g into the family shrunk by t: the depths of one numpy
    pass (penetrations) minus t, since shrinking by t lowers each by t."""
    if not 0 <= t < INF:
        raise ValueError("shrink time must be finite and nonnegative")
    depths = penetrations(g, fam.columns)[0] - t
    worst = float(depths.max(initial=-INF))
    return AvoidanceReport(g, list(enumerate(depths.tolist())), worst <= tol, -worst)


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
    (toward +inf when forward) penetrates beyond depth tol, or None: of
    those whose interval on g is not empty, the one g enters first past
    t_x, the lowest index on ties."""
    import numpy as np
    ray = g.restricted(t_x, INF) if forward else g.restricted(-INF, t_x)
    depth, lo, hi = penetrations(ray, fam.columns)
    hit = np.flatnonzero(~(depth <= tol) & ~np.isnan(lo) & (np.arange(len(lo)) != skip))
    if not hit.size:
        return None
    entry = np.maximum(lo[hit] - t_x, 0) if forward else np.maximum(t_x - hi[hit], 0)
    return int(hit[np.argmin(entry)])


def _nearest(fam: HoroballFamily, x: Point, tol: float) -> int:
    """Index of the member nearest to x (the first on ties), by
    point_to_horoball_dist on the members a float pass leaves; raises
    when x lies deeper than tol inside one."""
    if not fam.horoballs:
        raise ValueError("empty family")
    approx, err = point_to_horoball_dists(x, fam.columns)
    dists = {i: point_to_horoball_dist(x, fam.horoballs[i])
             for i in min_candidates(approx, err).tolist()}
    n0 = min(dists, key=dists.__getitem__)
    if dists[n0] < -tol:
        raise ValueError("start point lies inside an open horoball")
    return n0


def _inverted(fam: HoroballFamily, p: tuple) -> HoroballFamily:
    """fam under the inversion at the boundary point p, z -> (z - p) /
    |z - p|^2, built as columns without member objects for its tangent
    rows: the member at b of radius r goes to the one at (b - p) / n2 of
    radius r / n2 (n2 = |b - p|^2), the one at p to the member at
    infinity of height 1 / 2r, and the one at infinity of height H to the
    member at 0 of radius 1 / 2H.  A float family is one numpy pass; on
    the rows where n2 leaves the normal range, b - p is first dilated by
    2^k (unit_exponent), and the results are scaled back by 2^k and 2^2k
    as math.ldexp, which raises where a finite value overflows.  An exact
    family is b - p = en / ed (Ratios.similar), then n2 = N / M
    (square_gap), the base en (M / ed) / N and the radius rn M / (rd N),
    per row in int64 where a float bound on every integer formed allows
    it and in Python ints elsewhere (packings._int_decide)."""
    import numpy as np
    cols, hs = fam.columns, fam.horoballs
    if fam.exact is None:
        p, exact = tuple(map(float, p)), None
        with np.errstate(all="ignore"):
            d = cols.base - p
            rows = np.flatnonzero(d.any(axis=1))
            d, r = d[rows], cols.radius[rows]
            n2 = sum(d[:, k] * d[:, k] for k in range(d.shape[1]))  # as vnorm2
            base, radius = (1 / n2)[:, None] * d, r / n2
            off = np.flatnonzero(~((n2 >= _TINY) & (n2 < INF)))
            k = unit_exponent(d[off], axis=1)
            u = np.ldexp(d[off], k[:, None])
            n = sum(u[:, j] * u[:, j] for j in range(u.shape[1]))
            ub, ur = u / n[:, None], r[off] / n
            base[off], radius[off] = np.ldexp(ub, k[:, None]), np.ldexp(ur, 2 * k)
        over = np.zeros(len(rows), dtype=bool)
        over[off] = (np.isinf(base[off]) & np.isfinite(ub)).any(axis=1) | \
            (np.isinf(radius[off]) & np.isfinite(ur))
        bad = np.flatnonzero(over | ~(radius > 0))
        if bad.size and over[bad[0]]:
            raise OverflowError("math range error")
    else:
        moved = fam.exact.similar([-Fraction(c) for c in p])
        rows = np.flatnonzero((moved.base_num != 0).any(axis=1))
        en, ed, rn, rd = (c[rows] for c in moved)
        nf, df, rnf, rdf = map(_ratio_floats, (en, ed, rn, rd))
        with np.errstate(over="ignore", invalid="ignore"):  # M, |en| M, rn M and rd N
            bound = np.prod(df * df, axis=1) * np.maximum.reduce(
                [abs(nf).max(1), rnf, rdf * (nf * nf / (df * df)).sum(1)])

        def invert(pos, dtype):
            n, d = en[pos].astype(dtype), ed[pos].astype(dtype)
            N, M = square_gap(n, d)
            return Ratios.lowest_terms(n * (M[:, None] // d), np.broadcast_to(N[:, None], n.shape),
                                       rn[pos].astype(dtype) * M, rd[pos].astype(dtype) * N)
        exact = Ratios(*map(int_column, _int_decide(bound, invert)))
        base, radius = exact.floats()
    t = cols.tangent
    members = {i: AtInfinityHoroball(1 / (2 * hs[i].radius)) for i in np.delete(t, rows).tolist()}
    members.update((i, TangentHoroball((0,) * len(p), Fraction(1, 2) / hs[i].height))
                   for i in cols.infinity.tolist())
    return HoroballFamily.from_columns(fam.dim, t[rows], base, radius, exact, members)


def _solver_endpoint(fam: HoroballFamily, s: float, start: Optional[int],
                     sign: int, tol: float) -> tuple:
    """Endpoint of the sharp solver along sign times the first axis:
    solve_2d on a planar family, solve_hnr beyond."""
    return (solve_2d if fam.dim == 2 else solve_hnr)(
        fam, s, start, (sign,) + (0,) * (fam.dim - 2), tol).endpoint


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
    n0 = _nearest(fam, x, tol)
    h0 = fam.horoballs[n0]
    at_inf = isinstance(h0, AtInfinityHoroball)
    xi0 = None if at_inf else h0.base
    g = geodesic_through(x, xi0)
    t_x = param_of(g, x)
    # travel away from xi0: every geodesic from a finite xi0 leaves it
    # toward +inf (upward when vertical), and a ray from infinity descends
    forward = not at_inf
    n1 = _first_hit_after(g, t_x, forward, fam, n0, tol)
    if n1 is None:
        if forward:
            ray = g.restricted(t_x, INF)
            endpoint = None if isinstance(g, VerticalGeodesic) else g.b
        else:
            ray = g.restricted(-INF, t_x)
            endpoint = g.foot
    else:
        s = math.exp(-(t - CONE_CONSTANT))
        eta = _solver_endpoint(fam if at_inf else _inverted(fam, xi0), s, n1, 1, tol)
        if at_inf:
            target = eta
        elif (n2 := vnorm2(eta)) <= tol * tol:
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
    eta, eta2 = (_solver_endpoint(fam, s, None, sign, tol) for sign in (-1, 1))
    if vnorm2(vsub(eta, eta2)) <= tol * tol:
        raise CertificateError("degenerate family: coincident endpoints")
    line = ArcGeodesic(eta, eta2)
    report = verify_avoidance(line, fam, t, tol)
    return LineResult(line, report, (eta, eta2))

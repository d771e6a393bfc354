"""Differential tests of the shared scan driver and certificate kernel
against the per-solver loops they replaced, which are kept here as
oracles: the planar interval solver with its step, the rotation solver
with its line step, the generic uncovering loop, and the CLI's own
endpoint re-check."""

import importlib
import json
import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horoshadow import serialize, sharp2d, sharpnd
from horoshadow.cli import main
from horoshadow.halfspace import TangentHoroball
from horoshadow.heisenberg import HeisPoint, cygan_dist, heis_modulus, heisenberg_space
from horoshadow.numeric import (
    DEFAULT_TOL,
    SHARP_SCALE,
    Certificate,
    CertificateError,
    certify,
)
from horoshadow.packings import extremal, farey, random_disjoint
from horoshadow.sharp2d import solve_2d
from horoshadow.sharpnd import maximal_annulus_ball, solve_hnr
from horoshadow.uncover import (
    AnnulusBall,
    BallFamily,
    NestedWitness,
    canonical_ball,
    euclidean_space,
    refine_step,
    safe_scale,
    uncover,
    uncover_two,
)

# the package exports the function `uncover`, which shadows the module
uncover_mod = importlib.import_module("horoshadow.uncover")

COLLINEAR_SIN = 1e-12

# ---------------------------------------------------------------------------
# oracles: the loops before the shared driver, verbatim up to names and
# return types (plain tuples instead of the solution records)

# the interval elements of the planar solver before it became solve_hnr
# along +-1, verbatim up to the name of the member index


class Side(Enum):
    LEFT = "L"
    RIGHT = "R"


@dataclass(frozen=True)
class IntervalComponent:
    """One of the two components of a shadow annulus on the line."""

    interval: tuple
    index: int
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

    center = midpoint

    @property
    def radius(self):
        return (self.interval[1] - self.interval[0]) / 2


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


def old_maximal_annulus_ball(h, s, direction, index=-1):
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


def old_component_of(h, s, side, index=-1):
    b, r = h.base[0], h.radius
    if side is Side.LEFT:
        return IntervalComponent((b - r, b - s * r), index, side)
    return IntervalComponent((b + s * r, b + r), index, side)


def old_step_2d(K, h2, s, index=-1, tol=DEFAULT_TOL):
    b, r = h2.base[0], h2.radius
    lo, hi = K.interval
    if b + s * r < lo - tol or b - s * r > hi + tol:
        return None
    candidates = []
    for side in (Side.LEFT, Side.RIGHT):
        c = old_component_of(h2, s, side, index)
        if c.lo >= lo - tol and c.hi <= hi + tol:
            margin = min(c.lo - lo, hi - c.hi)
            candidates.append((margin, side is Side.RIGHT, c))
    if not candidates:
        raise CertificateError(
            f"no annulus component of horoball {index} fits in {K.interval}; "
            "scale above the sharp threshold or family invalid")
    candidates.sort(key=lambda t: (t[0], t[1]))
    return candidates[-1][2]


def old_solve_2d(fam, s, start=None, side=Side.RIGHT, tol=DEFAULT_TOL):
    """(endpoint, witness, start index)"""
    if fam.dim != 2:
        raise ValueError("the interval solver needs a planar family")
    if not 0 < s <= SHARP_SCALE * (1 + 1e-12):
        raise ValueError(f"scale factor must lie in (0, {SHARP_SCALE}]")
    items = fam.tangent_items()
    if not items:
        raise ValueError("no tangent horoballs to solve against")
    if start is None:
        a0 = max(items, key=lambda ih: (ih[1].radius, -ih[0]))[0]
    else:
        a0 = start
        if not isinstance(fam.horoballs[a0], TangentHoroball):
            raise ValueError("start index is not a tangent horoball")
    h0 = fam.horoballs[a0]
    b0, r0 = h0.base[0], h0.radius
    K = old_component_of(h0, s, side, a0)
    sup = max(h.radius for _, h in items)
    order = [(i, h) for i, h in items
             if i != a0 and h.radius <= r0 + tol
             and abs(h.base[0] - b0) <= 3 * sup]
    order.sort(key=lambda ih: (-ih[1].radius, ih[0]))
    witness = [K]
    for i, h in order:
        K2 = old_step_2d(K, h, s, index=i, tol=tol)
        if K2 is not None:
            witness.append(K2)
            K = K2
    endpoint = K.midpoint
    worst = None
    for i, h in items:
        margin = abs(endpoint - h.base[0]) - s * h.radius
        if worst is None or margin < worst[1]:
            worst = (i, margin)
    if worst[1] < -tol:
        raise CertificateError(
            f"endpoint meets scaled shadow of horoball {worst[0]} "
            f"(margin {float(worst[1]):.3e})")
    if not (b0 - r0 - tol <= endpoint <= b0 + r0 + tol):
        raise CertificateError("endpoint escaped the start shadow")
    return endpoint, witness, a0


def old_line_step(y1, R, b2, r2, s, tol):
    lo, hi = y1 - R, y1 + R
    if b2 + s * r2 < lo - tol or b2 - s * r2 > hi + tol:
        return None
    best = None
    for sgn in (-1.0, 1.0):
        c_lo, c_hi = ((b2 - r2, b2 - s * r2) if sgn < 0
                      else (b2 + s * r2, b2 + r2))
        if c_lo >= lo - tol and c_hi <= hi + tol:
            margin = min(c_lo - lo, hi - c_hi)
            if best is None or (margin, sgn) > (best[0], best[1]):
                best = (margin, sgn, (c_lo + c_hi) / 2)
    if best is None:
        raise CertificateError(
            "no annulus component fits on the reduction line; "
            "scale above the sharp threshold or family invalid")
    return best[2]


def old_step_hnr(parent, K, other, s, index=-1, tol=DEFAULT_TOL):
    x = np.asarray(parent.base, dtype=float)
    y = np.asarray(K.center, dtype=float)
    x2 = np.asarray(other.base, dtype=float)
    r2 = float(other.radius)
    d_scaled = np.linalg.norm(x2 - y)
    if d_scaled > K.radius + s * r2 + tol:
        return None
    u = y - x
    nu = np.linalg.norm(u)
    if nu == 0:
        raise ValueError("annulus ball centered at the shadow center")
    u = u / nu
    w = x2 - y
    nw = np.linalg.norm(w)
    if nw <= tol:
        coord = old_line_step(nu, K.radius, float(np.dot(x2 - x, u)), r2, s, tol)
        if coord is None:
            return None
        center = x + coord * u
    else:
        wpar = float(np.dot(w, u))
        wperp = w - wpar * u
        nperp = np.linalg.norm(wperp)
        if nperp <= COLLINEAR_SIN * nw:
            coord = old_line_step(nu, K.radius, float(np.dot(x2 - x, u)), r2, s, tol)
            if coord is None:
                return None
            center = x + coord * u
        else:
            b2_line = nu + nw
            coord = old_line_step(nu, K.radius, b2_line, r2, s, tol)
            if coord is None:
                return None
            center = y + (coord - nu) * (w / nw)
    K2 = AnnulusBall(tuple(map(float, center)), r2 * (1 - s) / 2, index)
    gap = float(np.linalg.norm(np.asarray(K2.center) - y)) + K2.radius - K.radius
    if gap > tol:
        raise CertificateError(
            f"rotated annulus ball not contained (excess {gap:.3e})")
    return K2


def old_solve_hnr(fam, s, start=None, direction=None, tol=DEFAULT_TOL):
    """(endpoint, witness, start index)"""
    if not 0 < s <= SHARP_SCALE * (1 + 1e-12):
        raise ValueError(f"scale factor must lie in (0, {SHARP_SCALE}]")
    items = fam.tangent_items()
    if not items:
        raise ValueError("no tangent horoballs to solve against")
    dim = fam.dim - 1
    if direction is None:
        direction = (1.0,) + (0.0,) * (dim - 1)
    if start is None:
        a0 = max(items, key=lambda ih: (ih[1].radius, -ih[0]))[0]
    else:
        a0 = start
        if not isinstance(fam.horoballs[a0], TangentHoroball):
            raise ValueError("start index is not a tangent horoball")
    h0 = fam.horoballs[a0]
    r0 = float(h0.radius)
    b0 = np.asarray(h0.base, dtype=float)
    K = old_maximal_annulus_ball(h0, s, direction, a0)
    sup = max(float(h.radius) for _, h in items)
    order = [(i, h) for i, h in items
             if i != a0 and float(h.radius) <= r0 + tol
             and np.linalg.norm(np.asarray(h.base, float) - b0) <= 3 * sup]
    order.sort(key=lambda ih: (-float(ih[1].radius), ih[0]))
    witness = [K]
    parent = h0
    for i, h in order:
        K2 = old_step_hnr(parent, K, h, s, index=i, tol=tol)
        if K2 is not None:
            witness.append(K2)
            K = K2
            parent = h
    endpoint = np.asarray(K.center, dtype=float)
    worst = None
    for i, h in items:
        margin = float(np.linalg.norm(endpoint - np.asarray(h.base, float))
                       - s * float(h.radius))
        if worst is None or margin < worst[1]:
            worst = (i, margin)
    if worst[1] < -tol:
        raise CertificateError(
            f"endpoint meets scaled shadow of horoball {worst[0]} "
            f"(margin {worst[1]:.3e})")
    if np.linalg.norm(endpoint - b0) > r0 + tol:
        raise CertificateError("endpoint escaped the start shadow")
    return tuple(map(float, endpoint)), witness, a0


def old_prepare(fam, s, start, tol):
    space = fam.space
    if not fam.balls:
        raise ValueError("empty family")
    radii = [r for _, r in fam.balls]
    sup = max(radii)
    eps = 1 - (1 + s) * math.sqrt(fam.D)
    if start is None:
        a0 = max(range(len(radii)), key=lambda i: (radii[i], -i))
    else:
        a0 = start
        if radii[a0] < (1 - eps) * sup - tol:
            raise ValueError(
                f"start ball {a0} too small to seed the loop "
                f"(need radius >= {(1 - eps) * sup:.6g})")
    x0, r0 = fam.balls[a0]
    keep = [i for i in range(len(fam.balls))
            if i != a0
            and radii[i] <= r0 + tol
            and space.dist(fam.balls[i][0], x0) <= 3 * sup]
    keep.sort(key=lambda i: (-radii[i], i))
    return a0, keep


def old_checked_prepare(fam, s, start, tol):
    """The threshold check that uncover and uncover_two ran before
    old_prepare, then old_prepare."""
    space = fam.space
    s0 = safe_scale(fam.D, space.modulus, space.has_lines)
    if not 0 <= s < s0:
        raise ValueError(f"scale factor {s} not below the threshold {s0:.6g}")
    return old_prepare(fam, s, start, tol)


def old_run(fam, s, a0, order, seed_point, tol):
    """(chain, output)"""
    space = fam.space
    x0, r0 = fam.balls[a0]
    K = canonical_ball(space, x0, r0, s * r0, seed_point, index=a0, tol=tol)
    chain = [(0, K)]
    for pos, j in enumerate(order, start=1):
        K2 = refine_step(space, K, fam.balls[j], s, index=j, tol=tol)
        if K2 is not None:
            chain.append((pos, K2))
            K = K2
    out = K.center
    worst = None
    for i, (xi, ri) in enumerate(fam.balls):
        margin = space.dist(out, xi) - s * ri
        if worst is None or margin < worst[1]:
            worst = (i, margin)
    if worst[1] < -tol:
        raise CertificateError(
            f"output meets scaled ball {worst[0]} (margin {worst[1]:.3e})")
    return chain, out


def old_uncover(fam, s, start=None, tol=DEFAULT_TOL):
    space = fam.space
    s0 = safe_scale(fam.D, space.modulus, space.has_lines)
    if not 0 <= s < s0:
        raise ValueError(f"scale factor {s} not below the threshold {s0:.6g}")
    a0, order = old_prepare(fam, s, start, tol)
    x0, r0 = fam.balls[a0]
    seed = space.sphere_point(x0, r0)
    return old_run(fam, s, a0, order, seed, tol)


def old_uncover_two(fam, s, start=None, tol=DEFAULT_TOL):
    space = fam.space
    if space.antipodes is None:
        raise ValueError("space does not expose antipodal sphere points")
    s0 = safe_scale(fam.D, space.modulus, space.has_lines)
    if not 0 <= s < s0:
        raise ValueError(f"scale factor {s} not below the threshold {s0:.6g}")
    a0, order = old_prepare(fam, s, start, tol)
    x0, r0 = fam.balls[a0]
    p, q = space.antipodes(x0, r0)
    w1 = old_run(fam, s, a0, order, p, tol)
    w2 = old_run(fam, s, a0, order, q, tol)
    if space.dist(w1[1], w2[1]) < s * r0 - tol:
        raise CertificateError("antipodal outputs too close")
    return w1, w2


def old_certify_endpoint(fam, endpoint, s, tol):
    checks = 0
    for _, h in fam.tangent_items():
        gap = math.sqrt(sum((float(e) - float(b)) ** 2
                            for e, b in zip(endpoint, h.base)))
        if gap < s * float(h.radius) - tol:
            return -1
        checks += 1
    return checks


def old_endpoint_json(coords):
    out = {"endpoint": [float(c) for c in coords]}
    if all(isinstance(c, (Fraction, int)) for c in coords):
        out["endpoint_exact"] = [str(Fraction(c)) for c in coords]
    return out


def old_uncloud(fam, s, mode, start, side, two, tol):
    """The witnesses and the verdict of the CLI's uncloud command before
    it reported the solvers' certificates; each witness also says
    whether its chain met no tie (tie_free_length)."""
    results = []
    certified = True
    if mode == "generic":
        balls = [(tuple(float(c) for c in h.base), float(h.radius))
                 for _, h in fam.tangent_items()]
        bf = BallFamily(euclidean_space(fam.dim - 1), balls, 0.25)
        wits = old_uncover_two(bf, s, start, tol) if two else (old_uncover(bf, s, start, tol),)
        for chain, out in wits:
            checks = old_certify_endpoint(fam, out, s, tol)
            certified &= checks >= 0
            results.append({**old_endpoint_json(out),
                            "chain_length": len(chain), "checks": checks,
                            "tie_free": True})
    elif mode == "dim2":
        sides = (Side.LEFT, Side.RIGHT) if two else \
            ((Side.LEFT if side == "L" else Side.RIGHT),)
        for sd in sides:
            endpoint, witness, _ = old_solve_2d(fam, s, start, sd, tol)
            checks = old_certify_endpoint(fam, (endpoint,), s, tol)
            certified &= checks >= 0
            results.append({**old_endpoint_json((endpoint,)),
                            "chain_length": len(witness),
                            "side": sd.value, "checks": checks,
                            "tie_free": tie_free_length(fam, s, witness, tol) == len(witness)})
    else:
        dim = fam.dim - 1
        dirs = [(1.0,) + (0.0,) * (dim - 1)]
        if two:
            dirs.append((-1.0,) + (0.0,) * (dim - 1))
        elif side == "L":
            dirs = [(-1.0,) + (0.0,) * (dim - 1)]
        for d in dirs:
            endpoint, witness, _ = old_solve_hnr(fam, s, start, d, tol)
            checks = old_certify_endpoint(fam, endpoint, s, tol)
            certified &= checks >= 0
            results.append({"endpoint": list(endpoint),
                            "chain_length": len(witness), "checks": checks,
                            "tie_free": tie_free_length(fam, s, witness, tol) == len(witness)})
    return results, certified


# ---------------------------------------------------------------------------
# helpers


def outcome(fn, *args, **kwargs):
    """("ok", value) or ("raised", exception type)."""
    try:
        return "ok", fn(*args, **kwargs)
    except (ValueError, CertificateError, IndexError) as exc:
        return "raised", type(exc)


def exhaustive_margins(points_and_radii, out, s, dist):
    return {i: dist(out, x) - s * r for i, (x, r) in points_and_radii}


def euclid(p, q):
    return math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(p, q)))


def planar_families():
    return {
        "farey": farey(9),
        "farey+inf": farey(9, (0, 1), include_infinity=True),
        "farey-wide+inf": farey(5, (-2, 3), include_infinity=True),
        "extremal": extremal(5),
        "extremal-below": extremal(4, 0.3),
        "random-2d": random_disjoint(60, 2, 3),
    }


PLANAR = planar_families()
SPACE = {
    "random-2d": random_disjoint(50, 2, 11),
    "random-3d": random_disjoint(80, 3, 4),
    "random-4d": random_disjoint(60, 4, 9),
    "farey+inf": farey(8, (0, 1), include_infinity=True),
}


def heisenberg_family(seed, count):
    """Balls with r r' <= d_Cyg(x, x')^2 / 4 <= d_CC(x, x')^2 / 4, by
    rejection sampling in a box."""
    rng = random.Random(seed)
    side = 1.2 * count ** 0.25
    balls = []
    while len(balls) < count:
        x = HeisPoint(complex(rng.uniform(0, side), rng.uniform(0, side)),
                      rng.uniform(-side * side, side * side))
        r = rng.uniform(0.05, 0.5)
        if all(r * r2 <= cygan_dist(x, x2) ** 2 / 4 for x2, r2 in balls):
            balls.append((x, r))
    return BallFamily(heisenberg_space(), balls, 0.25)


HEIS = heisenberg_family(5, 14)
HEIS_S = 0.9 * safe_scale(0.25, heis_modulus)

sharp_s = st.floats(0.01, 0.62)
generic_s = st.floats(0.01, 0.235)


def unit_vectors(n):
    """Unit vectors in R^n; a draw too close to 0 becomes the first axis."""
    def normalise(v):
        norm = math.sqrt(sum(c * c for c in v))
        if norm < 0.1:
            return (1.0,) + (0.0,) * (n - 1)
        return tuple(c / norm for c in v)
    return st.lists(st.floats(-1, 1), min_size=n, max_size=n).map(normalise)


# ---------------------------------------------------------------------------
# the certificate kernel


class TestCertify:
    def test_margin_index_and_count(self):
        cert = certify({3: 0.5, 7: 0.125, 9: 0.25}, 1e-9)
        assert cert == Certificate(0.125, 7, 3)

    def test_ties_go_to_the_first_index(self):
        assert certify({4: 0.0, 2: 0.0, 5: 1.0}, 0).index == 4

    def test_exact_margins(self):
        cert = certify({0: Fraction(1, 3), 1: Fraction(0)}, 0)
        assert cert.margin == 0 and cert.index == 1 and cert.checks == 2

    def test_passes_at_exactly_minus_tol(self):
        tol = 1e-9
        assert certify({0: 1.0, 1: -tol}, tol).margin == -tol
        assert certify({0: Fraction(-1, 10)}, Fraction(1, 10)).index == 0

    def test_raises_just_below(self):
        tol = 1e-9
        with pytest.raises(CertificateError, match="member 1"):
            certify({0: 1.0, 1: math.nextafter(-tol, -math.inf)}, tol)
        with pytest.raises(CertificateError):
            certify({0: Fraction(-1, 10) - Fraction(1, 10 ** 30)}, Fraction(1, 10))
        with pytest.raises(CertificateError):
            certify({0: Fraction(-1, 10 ** 30)}, 0)

    def test_certificate_is_an_immutable_value(self):
        # equal and hashed by its fields, shown with their names
        cert = certify({3: 0.5, 1: 0.25, 2: 0.25}, 1e-9)
        assert cert == Certificate(margin=0.25, index=1, checks=3) != Certificate(0.25, 2, 3)
        assert len({cert, Certificate(0.25, 1, 3), Certificate(0.25, 1, 4)}) == 2
        assert repr(cert) == "Certificate(margin=0.25, index=1, checks=3)"
        for name in ("margin", "index", "checks", "other"):
            with pytest.raises(AttributeError):
                setattr(cert, name, 0)
        assert cert == Certificate(0.25, 1, 3)


# ---------------------------------------------------------------------------
# solver differentials


def center_of(K) -> tuple:
    """The center of a chain element as a tuple (an interval's midpoint)."""
    return K.center if isinstance(K.center, tuple) else (K.center,)


def tie_free_length(fam, s, witness, tol=DEFAULT_TOL) -> int:
    """Length of the prefix of an old chain up to its first step at which
    both annulus components of the member fit in the element with tied
    margins (exactly for Fractions, to rounding for floats), or its whole
    length.  Past such a step the old and the new planar solver may part
    ways: the old interval step broke ties to the right on the line, the
    line step of solve_hnr breaks them away from the parent's base, and
    in floats the two frames round differently.  Chains beyond the line
    have no ties to break."""
    if fam.dim != 2:
        return len(witness)
    for k, (K, K2) in enumerate(zip(witness, witness[1:]), start=1):
        (c,), R = center_of(K), K.radius
        h = fam.horoballs[K2.index]
        b, r = h.base[0], h.radius
        margins = [min(c_lo - (c - R), (c + R) - c_hi)
                   for c_lo, c_hi in ((b - r, b - s * r), (b + s * r, b + r))]
        exact = all(isinstance(v, (Fraction, int)) for v in (c, R, b, r, s))
        eps = 0 if exact else 1e-12 * (abs(float(b)) + float(r) + abs(float(c)) + float(R))
        if min(margins) >= -tol - eps and abs(margins[0] - margins[1]) <= eps:
            return k
    return len(witness)


def assert_same_chain(fam, s, sol, endpoint, witness):
    """A new solution against an old (endpoint tuple, chain): the same
    members and, to rounding (exactly on Fractions), the same centers and
    radii up to the old chain's first tie, and the same endpoint where
    the old chain met none."""
    scale = max(float(h.radius) for _, h in fam.tangent_items())
    n = tie_free_length(fam, s, witness)

    def same(a, b):
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a == b
        return math.isclose(float(a), float(b), rel_tol=1e-12, abs_tol=1e-12 * scale)

    assert [K.index for K in sol.witness[:n]] == [K.index for K in witness[:n]]
    for got, want in zip(sol.witness[:n], witness[:n]):
        assert all(map(same, got.center, center_of(want))), (got, want)
        assert same(got.radius, want.radius), (got, want)
    if n == len(witness):
        assert len(sol.witness) == n
        assert all(map(same, sol.endpoint, endpoint)), (sol.endpoint, endpoint)


def check_line(fam, s, start, side):
    old = outcome(old_solve_2d, fam, s, start, side)
    new = outcome(solve_2d, fam, s, start, (-1,) if side is Side.LEFT else (1,))
    if old[0] == "raised":
        assert new == old
        return
    assert new[0] == "ok", new
    endpoint, witness, a0 = old[1]
    sol = new[1]
    assert sol.start_index == a0
    assert_same_chain(fam, s, sol, (endpoint,), witness)
    items = fam.tangent_items()
    assert sol.certificate.checks == len(items)
    margins = {i: abs(sol.endpoint[0] - h.base[0]) - s * h.radius for i, h in items}
    assert sol.certificate.margin == min(margins.values())
    assert margins[sol.certificate.index] == sol.certificate.margin


def check_space(fam, s, start, direction):
    old = outcome(old_solve_hnr, fam, s, start, direction)
    new = outcome(solve_hnr, fam, s, start, direction)
    if old[0] == "raised":
        assert new == old
        return
    assert new[0] == "ok", new
    endpoint, witness, a0 = old[1]
    sol = new[1]
    assert sol.start_index == a0
    assert_same_chain(fam, s, sol, endpoint, witness)
    items = fam.tangent_items()
    assert sol.certificate.checks == len(items)
    margins = {i: euclid(sol.endpoint, h.base) - s * float(h.radius) for i, h in items}
    assert sol.certificate.margin == pytest.approx(min(margins.values()), abs=1e-12 * (
        1 + max(map(abs, sol.endpoint))))


def check_uncover(bf, s, start, two):
    assert outcome(uncover_mod._prepare, bf, s, start, DEFAULT_TOL) == \
        outcome(old_checked_prepare, bf, s, start, DEFAULT_TOL)
    if two:
        old = outcome(old_uncover_two, bf, s, start)
        new = outcome(uncover_two, bf, s, start)
    else:
        old = outcome(lambda *a: (old_uncover(*a),), bf, s, start)
        new = outcome(lambda *a: (uncover(*a),), bf, s, start)
    if old[0] == "raised":
        assert new == old
        return
    assert new[0] == "ok", new
    for (chain, out), w in zip(old[1], new[1]):
        assert isinstance(w, NestedWitness)
        assert (w.chain, w.output) == (chain, out)
        assert w.certificate.checks == len(bf.balls)
        margins = exhaustive_margins(enumerate(bf.balls), out, s, bf.space.dist)
        assert w.certificate.margin == min(margins.values())


class TestLineStep:
    """step_2d is fit_component returning the interval, and the planar
    seed ball is the side component of component_of."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), exact=st.booleans(), tol=st.sampled_from([0, DEFAULT_TOL]))
    def test_matches_fit_component(self, data, exact, tol):
        def num(lo, hi):
            return data.draw(st.fractions(lo, hi, max_denominator=100) if exact
                              else st.floats(float(lo), float(hi)))

        lo = num(-4, 4)
        hi, b, r, s = lo + num(Fraction(1, 100), 4), num(-4, 4), num(Fraction(1, 100), 2), \
            num(Fraction(1, 50), Fraction(31, 50))
        old = outcome(fit_component, (lo, hi), b, r, s, 3, tol)
        new = outcome(sharp2d.step_2d, (lo, hi), b, r, s, 3, tol)
        if old[0] == "ok" and old[1] is not None:
            old = ("ok", old[1].interval)
        assert new == old

    @settings(max_examples=200, deadline=None)
    @given(b=st.fractions(-4, 4, max_denominator=100),
           r=st.fractions(Fraction(1, 100), 2, max_denominator=100),
           s=st.fractions(Fraction(1, 50), Fraction(49, 50), max_denominator=100),
           side=st.sampled_from([Side.LEFT, Side.RIGHT]), exact=st.booleans())
    def test_seed_is_the_side_component(self, b, r, s, side, exact):
        if not exact:
            b, r, s = float(b), float(r), float(s)
        h = TangentHoroball((b,), r)
        K = maximal_annulus_ball(h, s, (1,) if side is Side.RIGHT else (-1,))
        C = component_of(h, s, side)
        if exact:
            assert (K.center, K.radius) == ((C.midpoint,), C.radius)
        else:
            assert K.center[0] == pytest.approx(C.midpoint, abs=1e-15)
            assert K.radius == pytest.approx(C.radius, abs=1e-15)


class TestLineSolver:
    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(PLANAR)), s=sharp_s,
           start=st.one_of(st.none(), st.integers(0, 200)),
           side=st.sampled_from([Side.LEFT, Side.RIGHT]))
    def test_matches_oracle(self, name, s, start, side):
        fam = PLANAR[name]
        if start is not None:
            start %= len(fam.horoballs)
        check_line(fam, s, start, side)

    @settings(max_examples=80, deadline=None)
    @given(q=st.integers(2, 9), with_inf=st.booleans(),
           s=st.fractions(Fraction(1, 50), Fraction(31, 50), max_denominator=60),
           start=st.one_of(st.none(), st.integers(0, 40)),
           side=st.sampled_from([Side.LEFT, Side.RIGHT]))
    def test_exact_farey_matches_oracle(self, q, with_inf, s, start, side):
        fam = farey(q, (0, 1), include_infinity=with_inf)
        if start is not None:
            start %= len(fam.horoballs)
        check_line(fam, s, start, side)

    def test_near_threshold_and_above(self):
        fam = extremal(6)
        for s in (SHARP_SCALE - 1e-9, SHARP_SCALE, SHARP_SCALE + 1e-6, 0.9):
            for side in Side:
                check_line(fam, s, None, side)


class TestSpaceSolver:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(SPACE)), s=sharp_s,
           start=st.one_of(st.none(), st.integers(0, 200)))
    def test_matches_oracle(self, data, name, s, start):
        fam = SPACE[name]
        if start is not None:
            start %= len(fam.horoballs)
        direction = data.draw(unit_vectors(fam.dim - 1))
        check_space(fam, s, start, direction)

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(PLANAR)), s=sharp_s,
           sign=st.sampled_from([-1.0, 1.0]))
    def test_planar_families_match_oracle(self, name, s, sign):
        check_space(PLANAR[name], s, None, (sign,))


def test_step_hnr_with_the_other_center_at_the_ball_center():
    # the other center within tol of K's center takes the axis line, not
    # a rotation through an ill-defined direction
    parent = TangentHoroball((0.0, 0.0), 1.0)
    K = maximal_annulus_ball(parent, 0.2, (1.0, 0.0), 0)
    for offset in (0.0, 1e-10, -3e-10):
        other = TangentHoroball((K.center[0], K.center[1] + offset), 0.05)
        new = sharpnd.step_hnr(parent, K, other, 0.2, index=1)
        assert new is not None
        assert new == old_step_hnr(parent, K, other, 0.2, index=1)


class TestUncover:
    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(sorted(SPACE)), s=generic_s,
           start=st.one_of(st.none(), st.integers(0, 200)), two=st.booleans())
    def test_euclidean_matches_oracle(self, name, s, start, two):
        fam = SPACE[name]
        items = fam.tangent_items()
        balls = [(tuple(float(c) for c in h.base), float(h.radius)) for _, h in items]
        bf = BallFamily(euclidean_space(fam.dim - 1), balls, 0.25)
        if start is not None:
            start %= len(balls)
        check_uncover(bf, s, start, two)

    @settings(max_examples=10, deadline=None)
    @given(start=st.one_of(st.none(), st.integers(0, 13)), two=st.booleans())
    def test_heisenberg_matches_oracle(self, start, two):
        check_uncover(HEIS, HEIS_S, start, two)

    @settings(max_examples=150, deadline=None)
    @given(members=st.lists(st.tuples(st.floats(-4, 4), st.sampled_from(
               [1.0, 1.0 + 1e-10, 1.0 - 1e-10, 0.5, 0.5 + 1e-10, 0.25, 0.125])),
               min_size=1, max_size=30),
           s=generic_s, start=st.one_of(st.none(), st.integers(0, 29)))
    def test_seed_prune_and_order_match_oracle(self, members, s, start):
        # near-tied radii (within tol of the seed's) and members on both
        # sides of the 3 sup prune distance
        bf = BallFamily(euclidean_space(1), [((x,), r) for x, r in members], 0.25)
        if start is not None:
            start %= len(members)
        assert outcome(uncover_mod._prepare, bf, s, start, DEFAULT_TOL) == \
            outcome(old_checked_prepare, bf, s, start, DEFAULT_TOL)

    def test_above_threshold_raises_alike(self):
        bf = BallFamily(euclidean_space(1), [((0.0,), 1.0), ((3.0,), 0.5)], 0.25)
        check_uncover(bf, 0.3, None, False)
        check_uncover(bf, 0.1, 1, True)  # start ball too small


# ---------------------------------------------------------------------------
# the CLI against the old solvers plus the old endpoint re-check

CLI_FAMILIES = {
    "farey": (farey(8), False),
    "farey+inf": (farey(8, (0, 1), include_infinity=True), False),
    "farey-exact+inf": (farey(7, (0, 1), include_infinity=True), True),
    "extremal": (extremal(5), False),
    "random-3d": (random_disjoint(60, 3, 2), False),
}


@pytest.fixture(scope="module")
def family_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("families")
    paths = {}
    for name, (fam, _) in CLI_FAMILIES.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(serialize.dumps(serialize.family_to_document(fam)))
    return paths


CLI_CASES = [
    (name, mode, s, start, side, two)
    for name in CLI_FAMILIES
    for mode in ("dim2", "hnr", "generic")
    if not (mode == "dim2" and name == "random-3d")
    for s in (("1/5", "3/5") if mode != "generic" else ("1/5",))
    for start in (None, 0, 3)
    for side, two in (("R", False), ("L", False), ("R", True))
]


@pytest.mark.parametrize("name,mode,s,start,side,two", CLI_CASES)
def test_cli_uncloud_matches_oracle(family_files, capsys, name, mode, s, start, side, two):
    _, exact = CLI_FAMILIES[name]
    # the oracle runs on the family the CLI reads: floats unless --exact
    fam = serialize.document_to_family(json.loads(family_files[name].read_text()), exact)
    argv = ["uncloud", str(family_files[name]), "--mode", mode, "--shrink-s", s]
    argv += ["--start", str(start)] if start is not None else []
    argv += ["--two"] if two else ["--side", side]
    argv += ["--exact"] if exact else []
    s_val = Fraction(s) if exact else float(Fraction(s))
    tol = 0 if exact else DEFAULT_TOL
    old = outcome(old_uncloud, fam, s_val, mode, start, side, two, tol)
    code = main(argv)
    out, err = capsys.readouterr()
    # declared change: --exact is refused in generic mode, which runs in floats
    if old[0] == "raised" or (exact and mode == "generic"):
        assert code == 1 and out == "" and err.startswith("error: ")
        return
    results, certified = old[1]
    if mode == "hnr":
        # declared change: hnr witnesses carry their side, and --two
        # emits L then R, as dim2 does
        sides = ("R", "L") if two else (side,)
        results = sorted(({**w, "side": d} for w, d in zip(results, sides)),
                         key=lambda w: w["side"])
    assert certified and code == 0
    doc = json.loads(out)
    assert doc["certified"] is True
    assert len(doc["witnesses"]) == len(results)
    for w, want in zip(doc["witnesses"], results):
        got = {k: v for k, v in w.items() if k not in ("margin", "margin_index")}
        # the rotation solver ran in floats: now an exact planar family
        # gives an exact endpoint in every mode --exact accepts
        assert ("endpoint_exact" in got) == exact
        if mode == "hnr" and exact:
            want["endpoint_exact"] = got["endpoint_exact"]
        if not want.pop("tie_free"):
            for fields in (got, want):
                for k in ("endpoint", "endpoint_exact", "chain_length"):
                    fields.pop(k, None)
        assert got.pop("endpoint", []) == pytest.approx(want.pop("endpoint", []), abs=1e-12)
        assert got == want
    for w in doc["witnesses"]:
        endpoint = [Fraction(c) for c in w["endpoint_exact"]] if "endpoint_exact" in w \
            else w["endpoint"]
        gaps = {i: euclid(endpoint, h.base) - float(s_val) * float(h.radius)
                for i, h in fam.tangent_items()}
        assert w["margin_index"] in gaps
        assert w["margin"] == pytest.approx(gaps[w["margin_index"]], abs=1e-12)
        assert w["margin"] <= min(gaps.values()) + 1e-12


@pytest.mark.parametrize("s", ["1/5", "3/5"])
@pytest.mark.parametrize("name", [n for n, (fam, _) in CLI_FAMILIES.items() if fam.dim == 2])
def test_cli_dim2_and_hnr_emit_the_same_witnesses(family_files, capsys, name, s):
    # dim2 is hnr plus the planar check: the same witnesses, sides and
    # order, and the same refusals
    _, exact = CLI_FAMILIES[name]
    for flags in (["--two"], ["--side", "L"], ["--side", "R", "--start", "3"], ["--start", "0"]):
        runs = []
        for mode in ("dim2", "hnr"):
            argv = ["uncloud", str(family_files[name]), "--mode", mode, "--shrink-s", s] + flags
            code = main(argv + (["--exact"] if exact else []))
            out, err = capsys.readouterr()
            runs.append((code, json.loads(out)["witnesses"] if code == 0 else out, err))
        assert runs[0] == runs[1], flags


# ---------------------------------------------------------------------------
# the step functions are looked up at call time


def test_solvers_call_steps_through_module_attributes(monkeypatch):
    calls = {"step_2d": 0, "step_hnr": 0, "refine_step": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(sharp2d, "step_2d")
    counting(sharpnd, "step_hnr")
    counting(uncover_mod, "refine_step")
    fam = farey(6)
    solve_2d(fam, 0.3)
    solve_hnr(fam, 0.3)
    balls = [(tuple(map(float, h.base)), float(h.radius)) for _, h in fam.tangent_items()]
    w = uncover(BallFamily(euclidean_space(1), balls, 0.25), 0.2)
    assert all(n > 0 for n in calls.values()), calls
    a0, order = old_prepare(BallFamily(euclidean_space(1), balls, 0.25), 0.2, None,
                            DEFAULT_TOL)
    # the gauge filter skips the members whose refinement is None
    assert len(w.chain) - 1 <= calls["refine_step"] < len(order)

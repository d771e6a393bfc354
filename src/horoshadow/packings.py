"""Generators and validators for named horoball families.

All generators emit finite truncations of the corresponding infinite
families, in the normalization where the distinguished boundary point is
infinity and the reference horosphere sits at Euclidean height 1.  The
arithmetic families (Farey, geometric) carry exact Fraction coordinates
so disjointness and tangency can be certified with integer arithmetic.

A family is held as columns (see HoroballFamily); numpy is imported
inside the functions that use it.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Optional

from .halfspace import AtInfinityHoroball, TangentHoroball
from .numeric import (
    DEFAULT_TOL,
    SHARP_SCALE,
    decide_le,
    may_be_le,
    sweep_pairs,
    to_float,
    widen,
)


@dataclass(frozen=True)
class Columns:
    """Float column view of a family, for the numpy filters in front of
    the scalar predicates: the indices of the tangent members
    (increasing) with their base rows and radii, and the indices of the
    members at infinity with their heights.  A value beyond the float
    range reads as -inf or +inf."""

    tangent: object
    base: object
    radius: object
    infinity: object
    height: object


#: integers below this size convert to floats exactly, so numpy divides
#: them correctly rounded, as Python divides ints
_EXACT_INT = 2 ** 53


def int_column(values):
    """Integers (a list of Python ints, or an integer array) as a numpy
    array: int64 where every value converts to a float exactly, an
    object array of Python ints otherwise."""
    import numpy as np
    try:
        col = np.array(values, dtype=np.int64)
    except OverflowError:
        col = np.array(values, dtype=object)
    small = not col.size or -_EXACT_INT < col.min() and col.max() < _EXACT_INT
    return col.astype(np.int64 if small else object, copy=False)


class Ratios:
    """Exact values of the tangent rows of Columns as num / den in lowest
    terms with den > 0 (int_column arrays): base_num and base_den of
    shape (rows, dim - 1), radius_num and radius_den of shape (rows,).
    Equal values have equal pairs."""

    __slots__ = ("base_num", "base_den", "radius_num", "radius_den")

    def __init__(self, base_num, base_den, radius_num, radius_den):
        self.base_num, self.base_den = base_num, base_den
        self.radius_num, self.radius_den = radius_num, radius_den

    @classmethod
    def lowest_terms(cls, base_num, base_den, radius_num, radius_den) -> "Ratios":
        """The Ratios of num / den (den > 0), each column an int_column."""
        import numpy as np
        gb, gr = np.gcd(base_num, base_den), np.gcd(radius_num, radius_den)
        return cls(*map(int_column, (base_num // gb, base_den // gb,
                                     radius_num // gr, radius_den // gr)))

    def __iter__(self):
        return (getattr(self, k) for k in self.__slots__)

    def similar(self, shift=None, k: int = 0) -> "Ratios":
        """The values translated by shift (a rational per base coordinate,
        or None), then dilated by 2^k: the base (b + shift) 2^k and the
        radius r 2^k, in lowest terms, each row in int64 where a float
        bound on every integer it forms lies below 2^62 (_int_decide)."""
        import numpy as np
        sn, sd = zip(*(Fraction(c).as_integer_ratio()
                       for c in shift or (0,) * self.base_num.shape[1]))
        up, down = 2 ** max(k, 0), 2 ** max(-k, 0)
        n, d, rn, rd = map(_ratio_floats, self)
        snf, sdf = np.array([list(map(to_float, sn)), list(map(to_float, sd))])
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.column_stack([abs(n) * sdf + abs(snf) * d, d * sdf, rn, rd]).max(1) \
                * to_float(max(up, down))

        def form(pos, dtype):
            bn, bd, r, rr = (c[pos].astype(dtype) for c in self)
            s_n, s_d, u, v = (np.array(c, dtype=dtype) for c in (sn, sd, up, down))
            return Ratios.lowest_terms((bn * s_d + s_n * bd) * u, bd * s_d * v, r * u, rr * v)
        return Ratios(*map(int_column, _int_decide(bound, form)))

    @classmethod
    def of(cls, bases: list, radii: list, width: int) -> "Ratios":
        """The Ratios of exact values (base tuples of the given width, radii)."""
        fb = [Fraction(c) for b in bases for c in b]
        fr = [Fraction(r) for r in radii]
        return cls(int_column([f.numerator for f in fb]).reshape(len(bases), width),
                   int_column([f.denominator for f in fb]).reshape(len(bases), width),
                   int_column([f.numerator for f in fr]), int_column([f.denominator for f in fr]))

    def floats(self) -> tuple:
        """(base, radius) float arrays: each value correctly rounded, as
        float(Fraction), or -inf or +inf beyond the float range."""
        return _ratio_floats(self.base_num, self.base_den), \
            _ratio_floats(self.radius_num, self.radius_den)


def _ratio_floats(num, den=None):
    """to_float(num / den) elementwise over int_column arrays (den 1 by default)."""
    import numpy as np
    if num.dtype != object and (den is None or den.dtype != object):
        return num / (1 if den is None else den)
    values = map(to_float, num.ravel().tolist()) if den is None else \
        (to_float(Fraction(n, d)) for n, d in zip(num.ravel().tolist(), den.ravel().tolist()))
    return np.array(list(values), dtype=float).reshape(num.shape)


def check_shape(dim, widths) -> None:
    """The checks on the shape of a family, with their messages: dim is
    at least 2 and every tangent base (of the lengths widths) has length
    dim - 1."""
    if dim < 2:
        raise ValueError("ambient dimension must be at least 2")
    if set(widths) - {dim - 1}:
        raise ValueError("horoball base dimension does not match family")


class Members(Sequence):
    """The members of a family as a sequence of horoballs: a member is
    built on first access and kept, so len() builds none.  It compares
    equal to any list or tuple of the same horoballs."""

    __slots__ = ("_fam",)
    __hash__ = None

    def __init__(self, fam: "HoroballFamily"):
        self._fam = fam

    def __len__(self) -> int:
        return len(self._fam._members)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        built = self._fam._members
        h = built[i]
        if h is None:
            h = built[i] = self._fam._build(range(len(built))[i])
        return h

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, (Members, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    def __add__(self, other):
        return list(self) + list(other)

    def __radd__(self, other):
        return list(other) + list(self)

    def __repr__(self) -> str:
        return repr(list(self))


class HoroballFamily:
    """Finite ordered family of horoballs in upper half-space, held as
    columns: the float view `columns` and, for an exact family, the exact
    values of its tangent rows `exact` (Ratios); exact is None exactly
    when the floats are the values, and for a family with no tangent
    rows.  `horoballs` builds a tangent member from the columns on first
    access to it (Members); the members at infinity are held as objects.
    The members are fixed once the family is built.

    HoroballFamily(dim, horoballs, labels) is from_columns with no column
    rows and every member given as an object.  Tangent members given as
    objects join the exact columns where the family has them, or where it
    has no column rows and every base coordinate and radius given is an
    int or a Fraction; else they join the float columns (to_float)."""

    def __init__(self, dim: int, horoballs, labels: Optional[list[str]] = None):
        self._init(dim, (), None, None, None, dict(enumerate(horoballs)), labels)

    @classmethod
    def from_columns(cls, dim: int, tangent, base, radius, exact: Optional[Ratios] = None,
                     members: Optional[dict] = None,
                     labels: Optional[list[str]] = None) -> "HoroballFamily":
        """The family whose members at the increasing indices `tangent`
        are the tangent horoballs with the float base rows and radii
        given, or with the exact values `exact` (which the floats then
        round, as Ratios.floats); `members` maps every other index to its
        member object."""
        fam = cls.__new__(cls)
        fam._init(dim, tangent, base, radius, exact, members or {}, labels)
        return fam

    def _init(self, dim, tangent, base, radius, exact, members, labels) -> None:
        import numpy as np
        extra = sorted(i for i, h in members.items() if isinstance(h, TangentHoroball))
        hs = [members[i] for i in extra]
        check_shape(dim, (base.shape[1:] if len(tangent) else ())
                    + tuple(len(h.base) for h in hs))
        if not len(tangent):
            tangent, base, radius = np.empty(0, dtype=np.intp), np.empty((0, dim - 1)), np.empty(0)
            if exact is None and all(isinstance(c, (int, Fraction))
                                     for h in hs for c in (*h.base, h.radius)):
                exact = Ratios.of([], [], dim - 1)
        if not (radius > 0 if exact is None else exact.radius_num > 0).all():
            raise ValueError("radius must be positive")
        if hs:
            tangent = np.concatenate([tangent, extra]).astype(np.intp)
            perm = np.argsort(tangent, kind="stable")
            if exact is not None:
                more = Ratios.of([h.base for h in hs], [h.radius for h in hs], dim - 1)
                exact = Ratios(*(np.concatenate(pair)[perm] for pair in zip(exact, more)))
                xb, xr = more.floats()
            else:
                xb = np.array([[to_float(c) for c in h.base] for h in hs], dtype=float)
                xr = np.array([to_float(h.radius) for h in hs], dtype=float)
            tangent, base = tangent[perm], np.concatenate([base, xb])[perm]
            radius = np.concatenate([radius, xr])[perm]
        infs = sorted(i for i, h in members.items() if isinstance(h, AtInfinityHoroball))
        self.dim, self.labels = dim, labels
        self.exact = exact if len(tangent) else None
        self._members = [None] * (len(tangent) + len(infs))
        for i in infs:
            self._members[i] = members[i]
        self.columns = Columns(np.asarray(tangent, dtype=np.intp), base, radius,
                               np.array(infs, dtype=np.intp),
                               np.array([to_float(members[i].height) for i in infs], dtype=float))

    @property
    def horoballs(self) -> Members:
        return Members(self)

    def _build(self, i: int) -> TangentHoroball:
        row = [int(self.columns.tangent.searchsorted(i))]
        return TangentHoroball(self.bases(row)[0], self.radii(row)[0])

    def __eq__(self, other):
        if not isinstance(other, HoroballFamily):
            return NotImplemented
        return (self.dim, self.labels) == (other.dim, other.labels) and \
            self.horoballs == other.horoballs

    __hash__ = None

    def __repr__(self) -> str:
        return f"HoroballFamily(dim={self.dim!r}, horoballs={self.horoballs!r}, " \
            f"labels={self.labels!r})"

    def tangent_items(self) -> list[tuple[int, TangentHoroball]]:
        hs = self.horoballs
        return [(i, hs[i]) for i in self.columns.tangent.tolist()]

    def bases(self, rows) -> list[tuple]:
        """Exact bases of the tangent rows `rows`, without building members:
        the exact columns, or the float ones where they are the values."""
        ex = self.exact
        if ex is not None:
            return [tuple(map(Fraction, n, d)) for n, d in
                    zip(ex.base_num[rows].tolist(), ex.base_den[rows].tolist())]
        return list(map(tuple, self.columns.base[rows].tolist()))

    def radii(self, rows) -> list:
        """Exact radii of the tangent rows `rows`, as bases."""
        ex = self.exact
        if ex is not None:
            return list(map(Fraction, ex.radius_num[rows].tolist(), ex.radius_den[rows].tolist()))
        return self.columns.radius[rows].tolist()

    def same_radii(self, a, b):
        """Mask over two arrays of tangent rows: where the radii are equal."""
        ex = self.exact
        if ex is None:
            return self.columns.radius[a] == self.columns.radius[b]
        return (ex.radius_num[a] == ex.radius_num[b]) & (ex.radius_den[a] == ex.radius_den[b])


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: list = field(default_factory=list)


def validate_disjoint(fam: HoroballFamily, tol: float = DEFAULT_TOL,
                      exact: bool = False) -> ValidationReport:
    """Check pairwise disjointness of the open horoballs; the violating
    index pairs are reported.  A tangent horoball against the one at
    infinity of height h requires 2r <= h, tested on the members that a
    float filter (may_be_le) leaves.  Two tangent horoballs need the
    quadratic certificate |x - x'|^2 >= 4 r r', and can overlap only if
    their shadows [x_1 - r, x_1 + r] on the first base coordinate meet
    (4 r r' <= (r + r')^2), so the candidate pairs come from a sweep of
    these intervals in floats, widened so that no pair the certificate
    rejects is pruned, at any scale.  The certificate runs on the
    candidates only: in floats with slack tol, or with exact=True with
    zero slack on the exact values (the Ratios of an exact family, else
    the floats read exactly), where a float filter (decide_le over
    _scaled_floats, with the error bound of _gap_bounds) settles the
    pairs clearly apart or clearly overlapping and the rest (the
    tangencies) are decided in integers (_apart), as is 2r <= h on the
    rows the filter leaves.  Cost is O(N log N + candidates).
    """
    import numpy as np
    hs, cols = fam.horoballs, fam.columns
    slack = 0 if exact else tol
    infs, tangs = cols.infinity.tolist(), cols.tangent.tolist()
    bad = [(i, j) for k, i in enumerate(infs) for j in infs[k + 1:]]
    for j in infs:
        cap = hs[j].height if exact else to_float(hs[j].height) * (1 + slack)
        capf, rs = to_float(cap), cols.radius
        rows = np.flatnonzero(may_be_le(capf, 2 * rs, abs(capf) + 2 * rs))
        bad.extend(tuple(sorted((tangs[k], j))) for k in rows[_exceeds(fam, rows, cap)].tolist())
    xs, rs = _scaled_floats(fam) if exact else (cols.base, cols.radius)
    # a negative slack lets the float test reach sqrt(1 - slack) times
    # further than the shadows
    a, b = sweep_pairs(xs[:, 0], rs * math.sqrt(max(1.0, 1.0 - slack)))
    with np.errstate(over="ignore", invalid="ignore"):
        diff = xs[a] - xs[b]
        gap = np.einsum("ij,ij->i", diff, diff)
        if exact:
            quad, err = _gap_bounds(xs[a], xs[b], diff, rs[a], rs[b])
            hit = ~decide_le(quad, gap, err, lambda pos: _apart(fam, a[pos], b[pos]))
        else:
            hit = gap < 4 * rs[a] * rs[b] * (1 - slack)
    bad.extend(zip(cols.tangent[a[hit]].tolist(), cols.tangent[b[hit]].tolist()))
    bad.sort()
    return ValidationReport(not bad, bad)


#: values within 2^-_KEY_RANGE .. 2^_KEY_RANGE are normal floats whose
#: sums in the sweep stay finite
_KEY_RANGE = 1000


def _scaled_floats(fam: HoroballFamily) -> tuple:
    """(base, radius) float columns of the tangent rows for the sweep and
    the float filter of the exact check, which ask the same of a family
    and of its dilations: the float columns, unless an exact family has a
    nonzero value beyond 2^+-1000 and one power of two 2^-E (2^E the
    largest nonzero value to within a factor two, from the bit lengths)
    brings every nonzero value within 2^-1000 .. 2; then the floats of
    the dilation by 2^-E (Ratios.similar)."""
    import numpy as np
    cols, ex = fam.columns, fam.exact
    if ex is not None:
        num = np.concatenate([ex.base_num.ravel(), ex.radius_num])
        den = np.concatenate([ex.base_den.ravel(), ex.radius_den])
        mag, limit = np.abs(np.concatenate([cols.base.ravel(), cols.radius])), 2.0 ** _KEY_RANGE
        nonzero = num != 0
        if not ((1 / limit < mag) & (mag < limit) | ~nonzero).all():
            exps = [abs(n).bit_length() - d.bit_length()
                    for n, d in zip(num[nonzero].tolist(), den[nonzero].tolist())]
            if max(exps) - min(exps) < _KEY_RANGE:
                return ex.similar(k=-max(exps)).floats()
    return cols.base, cols.radius


def _gap_bounds(xa, xb, diff, ra, rb) -> tuple:
    """4 r r' in floats over pairs of float base rows and radii, and a
    bound on the error of it and of the squared gap |xa - xb|^2 (diff is
    xa - xb) against the exact values that the floats round.  Each
    coordinate of diff errs by at most 3u (|x| + |x'|) (u = 2^-53), so
    its square by 6u (|x| + |x'|) |dx| + 9u^2 (|x| + |x'|)^2, and 4 r r'
    by 3u 4 r r'; widen covers each term.  The 2^-1000 terms cover the
    absolute error of values rounded to subnormals."""
    import numpy as np
    quad = 4 * ra * rb
    span = np.abs(xa) + np.abs(xb) + _SUBNORMAL_PAD
    mag = quad + _SUBNORMAL_PAD * (ra + rb) + (span * (np.abs(diff) + span * 2.0 ** -50)).sum(1)
    return quad, widen(mag)


#: above 2^-1074 / widen's relative pad, with room to spare
_SUBNORMAL_PAD = 2.0 ** -1000


def _ratios(fam: HoroballFamily, rows) -> Ratios:
    """Exact values of the tangent rows `rows`: the family's Ratios, or
    its float columns read exactly, as Fraction(float)."""
    import numpy as np
    if fam.exact is not None:
        return Ratios(*(c[rows] for c in fam.exact))
    base, radius = fam.columns.base[rows], fam.columns.radius[rows]
    if not (np.isfinite(base).all() and np.isfinite(radius).all()):
        raise ValueError("an exact check needs finite values")
    return Ratios.of(base.tolist(), radius.tolist(), base.shape[1])


def _exceeds(fam: HoroballFamily, rows, cap):
    """Mask of 2 r > cap over the tangent rows `rows`: in floats where
    they compare the values (a float cap against the float columns of a
    float family, or a cap of +-inf or NaN), else 2 rn cd > cn rd in
    Python ints over the radii rn / rd and the cap cn / cd."""
    if isinstance(cap, float) and (fam.exact is None or not math.isfinite(cap)):
        return 2 * fam.columns.radius[rows] > cap
    cn, cd = Fraction(cap).as_integer_ratio()
    _, _, rn, rd = _ratios(fam, rows)
    return (2 * rn.astype(object) * cd > cn * rd.astype(object)).astype(bool)


def square_gap(num, den) -> tuple:
    """(N, M) with N / M the squared norm of each row of num / den
    (integer arrays, coordinate by coordinate, den > 0): M is the product
    of the den^2 and N = sum_k num_k^2 M / den_k^2, both integers."""
    import numpy as np
    dd = den * den
    M = np.prod(dd, axis=1)
    return (num * num * (M[:, None] // dd)).sum(axis=1), M


def _apart(fam: HoroballFamily, a, b):
    """Mask of 4 r r' <= |x - x'|^2 over pairs of tangent rows a, b, in
    integers over their exact values.  Per coordinate x - x' = num / den
    with num = n d' - n' d and den = d d'; with P the product of the
    den^2 (square_gap), the test times rd rd' P reads

        4 rn rn' P <= rd rd' sum_k num_k^2 P / den_k^2.

    A float bound on every integer the test forms comes first, from the
    columns read as floats: |n| d' + |n'| d for the products in num,
    |num| to within 2^-50 of that sum (the rounding of its float value),
    P for the den and the products of den^2, and both sides.  Each pair
    runs the test in int64 where its bound lies below 2^62, so that no
    step overflows, and in Python ints elsewhere (_int_decide)."""
    import numpy as np
    used = np.zeros(len(fam.columns.tangent), dtype=bool)
    used[a] = used[b] = True
    ex, local = _ratios(fam, np.flatnonzero(used)), np.cumsum(used) - 1
    a, b = local[a], local[b]
    n, d, rn, rd = ex
    nf, df, rnf, rdf = map(_ratio_floats, ex)
    with np.errstate(over="ignore", invalid="ignore"):
        cross = np.abs(nf[a]) * df[b] + np.abs(nf[b]) * df[a]
        num = np.abs(nf[a] * df[b] - nf[b] * df[a]) + cross * 2.0 ** -50
        dd = (df[a] * df[b]) ** 2
        p = np.prod(dd, axis=1)
        lhs = rdf[a] * rdf[b] * np.maximum(1, (num * num * (p[:, None] / dd)).sum(1))
        bound = np.maximum.reduce([cross.max(1), p, lhs, 4 * rnf[a] * rnf[b] * p])

    def decide(pos, dtype):
        pa, pb = a[pos], b[pos]
        na, nb, da, db = (c.astype(dtype) for c in (n[pa], n[pb], d[pa], d[pb]))
        gap, p = square_gap(na * db - nb * da, da * db)
        lhs = rd[pa].astype(dtype) * rd[pb].astype(dtype) * gap
        return 4 * rn[pa].astype(dtype) * rn[pb].astype(dtype) * p <= lhs
    return _int_decide(bound, decide)


#: int64 holds every integer below 2^63; the factor two left over covers
#: the rounding of a float bound on an integer
_INT64_BOUND = 2.0 ** 62


def _int_decide(bound, decide):
    """decide(positions, dtype) over all the positions of bound, a float
    array that bounds every integer decide forms at a position: run in
    int64 where the bound lies below 2^62, and on Python ints in object
    arrays on the rest (NaN included).  Its array (a boolean mask), or
    iterable of arrays, comes back in position order."""
    import numpy as np
    with np.errstate(invalid="ignore"):
        small = bound < _INT64_BOUND
    pos = np.flatnonzero(small), np.flatnonzero(~small)
    if not (len(pos[0]) and len(pos[1])):
        return decide(np.arange(len(small)), np.int64 if len(pos[0]) else object)
    a, b, order = decide(pos[0], np.int64), decide(pos[1], object), np.argsort(np.concatenate(pos))
    if isinstance(a, np.ndarray):
        return np.concatenate([a, b])[order]
    return [np.concatenate(pair)[order] for pair in zip(a, b)]


def farey(q_max: int, p_range: tuple = (0, 1),
          include_infinity: bool = False) -> HoroballFamily:
    """Horoballs tangent at the reduced fractions p/q with q <= q_max and
    p/q inside the closed interval p_range, each of Euclidean radius
    1/(2 q^2), in the order of increasing q, then p; optionally with the
    reference horoball at infinity after them.

    Two members are tangent exactly when |p q' - p' q| = 1.  The family
    is built from the integer columns p and q (one numpy pass, in int64
    while every value converts to a float exactly).
    """
    import numpy as np
    if q_max < 1:
        raise ValueError("q_max must be at least 1")
    lo, hi = Fraction(p_range[0]), Fraction(p_range[1])
    if lo > hi:
        raise ValueError("empty fraction range")
    big = max(abs(lo.numerator), abs(hi.numerator), lo.denominator, hi.denominator, 2 * q_max)
    q = np.arange(1, q_max + 1, dtype=np.int64 if big * q_max < _EXACT_INT else object)
    p_lo = -(-lo.numerator * q // lo.denominator)
    counts = np.maximum(hi.numerator * q // hi.denominator - p_lo + 1, 0).astype(np.int64)
    p = np.repeat(p_lo - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
    q = np.repeat(q, counts)
    keep = np.gcd(p, q) == 1
    p, q = p[keep], q[keep]
    labels = [f"{a}/{b}" for a, b in zip(p.tolist(), q.tolist())]
    members = {}
    if include_infinity:
        members[len(p)] = AtInfinityHoroball(1)
        labels.append("inf")
    if not labels:
        raise ValueError("no fractions in range")
    exact = Ratios(p[:, None], q[:, None], np.ones_like(q), 2 * q * q)
    base, radius = exact.floats()
    return HoroballFamily.from_columns(2, np.arange(len(p)), base, radius, exact,
                                       members, labels)


def geometric(n_min: int, n_max: int) -> HoroballFamily:
    """Self-similar chain of mutually tangent horoballs with radii 16^n,
    tangent at (8/15)(1 - 16^n); the quadratic packing identity holds
    exactly but the radii are unbounded (negative control for the
    bounded-radius hypothesis of the uncovering result)."""
    if n_min > n_max:
        raise ValueError("empty index range")
    c = Fraction(8, 15)
    balls = [TangentHoroball((c * (1 - Fraction(16) ** n),), Fraction(16) ** n)
             for n in range(n_min, n_max + 1)]
    labels = [str(n) for n in range(n_min, n_max + 1)]
    return HoroballFamily(2, balls, labels)


def extremal(generations: int, s: float = SHARP_SCALE) -> HoroballFamily:
    """Binary tree of horoballs rooted at the unit ball tangent at 0.

    Children of a ball tangent at x with radius r sit at x +- r(1+s)/2
    with radius r(1-s)/2, i.e. their shadows are exactly the two
    components of the parent shadow minus the scaled parent shadow.  At
    s = SHARP_SCALE every child is tangent to its parent and the whole
    family is pairwise disjoint; below it parents and children overlap.
    Generated breadth first, 2^(generations+1) - 1 horoballs.
    """
    if generations < 1:
        raise ValueError("need at least one generation")
    if not 0 < s < 1:
        raise ValueError("scale factor must lie in (0, 1)")
    zero = 0 * s  # keeps Fraction input exact all the way down
    balls = [TangentHoroball((zero,), zero + 1)]
    labels = [""]
    level = [(balls[0].base[0], balls[0].radius, "")]
    for _ in range(generations):
        nxt = []
        for x, r, tag in level:
            off = r * (1 + s) / 2
            rc = r * (1 - s) / 2
            for sgn, letter in ((-1, "L"), (1, "R")):
                child = (x + sgn * off, rc, tag + letter)
                nxt.append(child)
                balls.append(TangentHoroball((child[0],), rc))
                labels.append(child[2])
        level = nxt
    return HoroballFamily(2, balls, labels)


def random_disjoint(count: int, dim: int = 2, seed: int = 0) -> HoroballFamily:
    """Seed-deterministic family of disjoint tangent horoballs obtained by
    greedy rejection sampling in the base box [0, side]^(dim-1), radii in
    [0.05, 1/2]: each attempt draws dim - 1 base coordinates, then a
    radius (random.uniform), and keeps the candidate unless its float
    test |b - b'|^2 < 4 r r' holds against a kept ball.

    The side is max(4, 2 count^(1/(dim-1))), so the box offers the same
    base volume 2^(dim-1) per ball in every dimension.  The candidates do
    not depend on which are kept, so they are drawn in blocks.  For each
    block, the pairs that may meet come from the sweep on the first base
    coordinate of the kept balls and the block (numeric.sweep_pairs): two
    balls that meet have |x1 - x1'| < r + r', as 4 r r' <= (r + r')^2.
    The float test runs on those pairs, and one greedy pass in draw order
    keeps each candidate that meets no kept one, up to count.  The family
    is the one a candidate-by-candidate loop draws, bit for bit.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if dim < 2:
        raise ValueError("ambient dimension must be at least 2")
    import numpy as np
    rng = random.Random(seed)
    # through sqrt, so that dim 3 keeps its correctly rounded side
    side = max(4.0, 2.0 * math.sqrt(count) ** (2 / (dim - 1)))
    max_attempts = 400 * count
    base, radius = np.empty((0, dim - 1)), np.empty(0)
    drawn = 0
    while len(radius) < count:
        if drawn == max_attempts:
            raise RuntimeError(
                f"could not place {count} disjoint horoballs "
                f"(placed {len(radius)} after {drawn + 1} attempts)")
        placed = len(radius)
        # 5/4 of the draws the missing balls take at the acceptance rate
        # so far, and at least drawn/8, so that the blocks grow
        # geometrically where that rate falls
        size = max(-(-5 * (count - placed) * max(drawn, 1) // (4 * max(placed, 1))),
                   drawn // 8)
        size = min(size, max_attempts - drawn)
        drawn += size
        u = np.fromiter(islice(iter(rng.random, None), size * dim), float,
                        size * dim).reshape(size, dim)
        # random.uniform(a, b) is a + (b - a) * random()
        base = np.concatenate([base, 0.0 + (side - 0.0) * u[:, :-1]])
        radius = np.concatenate([radius, 0.05 + (0.5 - 0.05) * u[:, -1]])
        a, b = sweep_pairs(base[:, 0], radius)
        fresh = b >= placed
        a, b = a[fresh], b[fresh]
        gap = 0.0
        for k in range(dim - 1):  # left to right, as a scalar sum adds
            d = base[b, k] - base[a, k]
            gap = gap + d * d
        hit = gap < 4 * radius[b] * radius[a]
        a, b = a[hit], b[hit]
        order = np.argsort(b)
        keep = [True] * len(radius)
        for j, k in zip(a[order].tolist(), b[order].tolist()):
            if keep[j]:  # j < k, so keep[j] is settled
                keep[k] = False
        rows = np.flatnonzero(keep)[:count]
        base, radius = base[rows], radius[rows]
    return HoroballFamily.from_columns(dim, np.arange(count), base, radius)

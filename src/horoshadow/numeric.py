"""Shared numeric plumbing: the default tolerance, the sharp scale, the
certificate kernel, the float filters in front of exact predicates, the
sweep over intervals, 1-D searches, the JSON encoding of documents.
Every command loads it, so numpy and json are imported where used."""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable

DEFAULT_TOL = 1e-9

#: largest scale factor admitted by the interval dichotomy (the positive
#: root of s^2 + 10 s - 7), which is also the tangency scale of the
#: extremal binary-tree packing
SHARP_SCALE = 4 * math.sqrt(2) - 5


class CertificateError(RuntimeError):
    """A constructed object failed its own runtime certificate."""


class Certificate(namedtuple("Certificate", "margin index checks")):
    """Outcome of an exhaustive avoidance check: the minimum margin, the
    member index where it occurs, and the number of members checked."""

    __slots__ = ()


def certify(margins: dict, tol: float, checks: int | None = None) -> Certificate:
    """Certificate over {member index: margin}, where a margin is the
    distance from the output to a member's center minus its scaled
    radius; raises CertificateError when the minimum is below -tol.
    Ties in the minimum go to the first index.  checks is the number of
    members checked, len(margins) by default; it is larger when a float
    filter (min_candidates) left out members that cannot hold the
    minimum."""
    index = min(margins, key=margins.__getitem__)
    margin = margins[index]
    if margin < -tol:
        raise CertificateError(
            f"output meets scaled ball of member {index} "
            f"(margin {float(margin):.3e})")
    return Certificate(margin, index, len(margins) if checks is None else checks)


def dumps(doc) -> str:
    """Compact single-line JSON with sorted keys (json's C encoder): the
    encoding of every document the package writes."""
    import json
    return json.dumps(doc, sort_keys=True)


#: widening of a float evaluation, relative to the sum of the absolute
#: values of its terms and absolute; together they exceed every rounding
#: error of a float conversion, of a short sum or product and of a float
#: test whose squares leave the normal range only below 2^-511
_REL_PAD = 2.0 ** -40
_ABS_PAD = 2.0 ** -500


def to_float(v) -> float:
    """float(v), or +-inf where v lies beyond the float range."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def widen(mag):
    """Error bound of a float evaluation whose terms add up to mag in
    absolute value (a float or a numpy array)."""
    return _REL_PAD * mag + _ABS_PAD


def unit_exponent(values, axis=None):
    """The k (an int, or one per row along axis) for which 2^k times the
    largest |value| lies in [1/2, 1); 0 where every value is 0."""
    import numpy as np
    k = -np.frexp(np.abs(np.asarray(values, dtype=float)).max(axis=axis, initial=0))[1]
    return int(k) if axis is None else k


def may_be_le(lhs, rhs, mag):
    """Filter for the exact test lhs <= rhs, given float evaluations of
    both sides whose terms add up to mag in absolute value (numpy arrays
    or floats): false only where lhs > rhs holds beyond widen(mag), so
    it is true wherever the exact test holds, and wherever a side is NaN.
    """
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
        return ~(lhs > rhs + widen(mag))


def decide_le(lhs, rhs, err, exact_le):
    """Mask of the exact tests lhs <= rhs, given float evaluations of both
    sides (numpy arrays or floats) within err of them in all: read off
    the floats where the sides differ by more than err, and decided by
    exact_le(positions), a list of booleans, on the rest and wherever a
    side is NaN.  With err = 0 the floats decide alone, as where they
    are the exact values."""
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(lhs <= rhs - err)
        unsure = np.flatnonzero(~out & ~(lhs > rhs + err))
    if len(unsure):
        out[unsure] = exact_le(unsure)
    return out


def min_candidates(approx, err):
    """Positions, increasing, at which values v with |v - approx| <= err
    (numpy arrays) may reach their minimum: approx - err is at most the
    smallest approx + err.  A NaN in approx or err is a candidate."""
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
        upper = approx + err
        bound = np.min(np.where(np.isnan(upper), np.inf, upper), initial=np.inf)
        return np.flatnonzero(~(approx - err > bound))


def sweep_pairs(key, half):
    """Index pairs (a, b), a < b, whose intervals [key - half, key + half]
    may meet (two float sequences in, two numpy index arrays out).

    Each float interval is widened (widen) so that it contains the exact
    one; an end that overflows or is NaN becomes -inf or +inf.  Sorted by
    left end, the intervals meeting interval i from the right are the run
    of left ends up to its right end (sweep and prune), so the cost is
    O(N log N + pairs).
    """
    import numpy as np
    x, half = np.asarray(key, float), np.asarray(half, float)
    with np.errstate(over="ignore", invalid="ignore"):
        pad = widen(np.abs(x) + half)
        lo = x - half - pad
        hi = x + half + pad
    lo = np.where(np.isnan(lo), -np.inf, lo)
    hi = np.where(np.isnan(hi), np.inf, hi)
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    first, second = spans(np.arange(1, len(lo) + 1), np.searchsorted(lo, hi, side="right"))
    a, b = order[first], order[second]
    return np.minimum(a, b), np.maximum(a, b)


def spans(lo, hi):
    """The ranges lo[k] <= p < hi[k] (numpy integer arrays) laid end to
    end: the k of each p, and p."""
    import numpy as np
    size = hi - lo
    k = np.repeat(np.arange(len(lo)), size)
    return k, np.arange(size.sum()) + np.repeat(lo - np.cumsum(size) + size, size)


def golden_max(f: Callable[[float], float], lo: float,
               hi: float) -> tuple[float, float]:
    """Maximize a unimodal f on [lo, hi] by golden-section search.

    Returns (argmax, max). Bracket is narrowed to 1e-12.
    """
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-12:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = (a + b) / 2
    return x, f(x)


def bisect_increasing(f: Callable[[float], float], lo: float, hi: float,
                      target: float) -> float:
    """Solve f(x) = target for increasing f on [lo, hi] by bisection,
    down to a bracket of 1e-13."""
    flo, fhi = f(lo) - target, f(hi) - target
    if flo > 0 or fhi < 0:
        raise ValueError("target not bracketed")
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if f(mid) - target <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

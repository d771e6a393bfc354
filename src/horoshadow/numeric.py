"""Shared numeric plumbing: the default tolerance, the sharp scale, the
certificate kernel, 1-D searches."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

DEFAULT_TOL = 1e-9

#: largest scale factor admitted by the interval dichotomy (the positive
#: root of s^2 + 10 s - 7), which is also the tangency scale of the
#: extremal binary-tree packing
SHARP_SCALE = 4 * math.sqrt(2) - 5


class CertificateError(RuntimeError):
    """A constructed object failed its own runtime certificate."""


@dataclass(frozen=True)
class Certificate:
    """Outcome of an exhaustive avoidance check: the minimum margin, the
    member index where it occurs, and the number of members checked."""

    margin: object
    index: int
    checks: int


def certify(margins: dict, tol: float) -> Certificate:
    """Certificate over {member index: margin}, where a margin is the
    distance from the output to a member's center minus its scaled
    radius; raises CertificateError when the minimum is below -tol.
    Ties in the minimum go to the first index."""
    index = min(margins, key=margins.__getitem__)
    margin = margins[index]
    if margin < -tol:
        raise CertificateError(
            f"output meets scaled ball of member {index} "
            f"(margin {float(margin):.3e})")
    return Certificate(margin, index, len(margins))


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

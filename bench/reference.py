"""The reference work that converts wall seconds to reference seconds.

On shared virtual machines the speed of identical code drifts by a
third between runs a minute apart, and by more when another process
shares the cores.  A measured interval times REF_SECONDS over the wall
time of `Reference.time()` in the same process next to it moves far
less: on a shared 2-core x86_64 virtual machine under Python 3.11, the
quartile spread of the median job time over 20-second windows of one
workload fell from about 30% to about 4-6%.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Callable

import numpy as np

#: the nominal duration of one `Reference.time()`
REF_SECONDS = 0.01


class Reference:
    """A fixed mix of the interpreter work the program does (Fraction
    and float arithmetic, complex numbers, list and dict access, small
    numpy calls) that no change to the program can speed up; its wall
    time tracks the speed of the machine better than a plain integer
    loop does."""

    def __init__(self):
        self.items = list(range(200_000))
        self.table = {i: i for i in range(50_000)}
        self.origin = np.zeros(3)

    def time(self) -> float:
        t = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 600):
            acc += Fraction(i, i + 7)
        x = 0.0
        for i in range(20_000):
            x += math.sin(i * 0.001) * (1 + 2j).real
        n = 0
        for i in range(0, 200_000, 7):
            n += self.items[i] + self.table.get(i % 50_000, 0)
        for i in range(1_000):
            x += float(np.linalg.norm(np.asarray((i, 1.0, 2.0)) - self.origin))
        return time.perf_counter() - t

    def scale(self, measure: Callable):
        """(result of measure(), REF_SECONDS over the reference's time
        before and after it)."""
        before = self.time()
        result = measure()
        return result, 2 * REF_SECONDS / (before + self.time())

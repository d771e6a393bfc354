import math

import pytest

from horoshadow.numeric import (
    bisect_increasing,
    golden_max,
)


class TestSearches:
    def test_golden_max_on_parabola(self):
        x, fx = golden_max(lambda x: -(x - 0.37) ** 2, 0, 1)
        assert x == pytest.approx(0.37, abs=1e-6)
        assert fx == pytest.approx(0, abs=1e-12)

    def test_golden_max_on_min_of_two_lines(self):
        x, fx = golden_max(lambda x: min(x, 1 - x), 0, 1)
        assert x == pytest.approx(0.5, abs=1e-6)
        assert fx == pytest.approx(0.5, abs=1e-6)

    def test_bisect_increasing(self):
        got = bisect_increasing(math.sinh, 0, 5, 2.0)
        assert math.sinh(got) == pytest.approx(2.0, abs=1e-10)

    def test_bisect_bracket_check(self):
        with pytest.raises(ValueError):
            bisect_increasing(math.sinh, 0, 1, 100.0)

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horoshadow.numeric import (
    bisect_increasing,
    golden_max,
    sweep_pairs,
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


def ends(key, half):
    """Float interval ends, a NaN end standing for the infinite one."""
    lo, hi = key - half, key + half
    return (-math.inf if math.isnan(lo) else lo, math.inf if math.isnan(hi) else hi)


def brute_pairs(key, half):
    """All pairs a < b whose intervals meet, by the O(N^2) test."""
    iv = [ends(k, h) for k, h in zip(key, half)]
    return {(a, b) for a in range(len(iv)) for b in range(a + 1, len(iv))
            if max(iv[a][0], iv[b][0]) <= min(iv[a][1], iv[b][1])}


def swept(key, half):
    a, b = sweep_pairs(key, half)
    pairs = list(zip(a.tolist(), b.tolist()))
    assert all(p < q for p, q in pairs) and len(set(pairs)) == len(pairs)
    return set(pairs)


class TestSweepPairs:
    def test_empty_and_one(self):
        assert swept([], []) == set()
        assert swept([3.0], [1.0]) == set()

    def test_equal_keys(self):
        assert swept([2.0] * 5, [0.0, 1.0, 0.5, 0.0, 2.0]) == brute_pairs([2.0] * 5, [0] * 5)

    def test_touching_intervals_meet(self):
        assert swept([0.0, 2.0, 5.0], [1.0, 1.0, 1.0]) == {(0, 1)}

    @pytest.mark.parametrize("key,half", [
        ([math.inf, 0.0, 1e308], [1.0, 1.0, 1e308]),
        ([-math.inf, 0.0, math.inf], [0.0, 0.0, 0.0]),
        ([0.0, 5.0, 9.0], [math.inf, 1.0, 1.0]),
        ([math.inf, 3.0, 0.0], [math.inf, 0.5, 0.5]),
        ([math.nan, 3.0, 0.0], [1.0, 0.5, 0.5]),
        ([1.0, 3.0, 0.0], [math.nan, 0.5, 0.5]),
    ], ids=["inf-key", "both-infs", "inf-half", "inf-minus-inf", "nan-key", "nan-half"])
    def test_non_finite(self, key, half):
        # an interval whose end is infinite or NaN reaches that far, so it
        # may meet more intervals than the exact test says, never fewer
        assert swept(key, half) >= brute_pairs(key, half)
        assert swept(key, half) <= {(a, b) for a in range(3) for b in range(a + 1, 3)}

    def test_an_undefined_end_meets_everything(self):
        assert swept([math.nan, 3.0, 0.0], [1.0, 0.5, 0.5]) == {(0, 1), (0, 2)}
        assert swept([math.inf, 3.0, 0.0], [math.inf, 0.5, 0.5]) == {(0, 1), (0, 2)}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-40, 40), st.integers(0, 12)), max_size=40))
    def test_matches_brute_force_on_a_grid(self, items):
        # on a grid of quarters two intervals either meet or miss by 1/4,
        # far beyond the widening
        key = [k / 4 for k, _ in items]
        half = [h / 4 for _, h in items]
        assert swept(key, half) == brute_pairs(key, half)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(0, 1e3)), max_size=40))
    def test_never_misses_a_meeting_pair(self, items):
        key = [k for k, _ in items]
        half = [h for _, h in items]
        got, want = swept(key, half), brute_pairs(key, half)
        assert got >= want
        for a, b in got - want:
            # the extra pairs miss by no more than the widening
            gap = abs(key[a] - key[b]) - half[a] - half[b]
            assert gap <= 2.0 ** -39 * (abs(key[a]) + abs(key[b]) + half[a] + half[b]) \
                + 2.0 ** -499

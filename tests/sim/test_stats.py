"""Unit + property tests for Tally and histogram."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import Tally, histogram


class TestTally:
    def test_empty_tally(self):
        tally = Tally()
        assert tally.count == 0
        assert tally.mean == 0.0
        assert tally.variance == 0.0
        assert tally.total == 0.0

    def test_mean_min_max(self):
        tally = Tally()
        for value in (1.0, 2.0, 3.0, 4.0):
            tally.add(value)
        assert tally.mean == pytest.approx(2.5)
        assert tally.minimum == 1.0
        assert tally.maximum == 4.0
        assert tally.total == pytest.approx(10.0)

    def test_variance_matches_definition(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        tally = Tally()
        for value in values:
            tally.add(value)
        assert tally.variance == pytest.approx(4.0)
        assert tally.stddev == pytest.approx(2.0)

    def test_merge_equals_combined(self):
        left, right, combined = Tally(), Tally(), Tally()
        for index in range(10):
            left.add(float(index))
            combined.add(float(index))
        for index in range(10, 25):
            right.add(float(index) * 2)
            combined.add(float(index) * 2)
        left.merge(right)
        assert left.count == combined.count
        assert left.mean == pytest.approx(combined.mean)
        assert left.variance == pytest.approx(combined.variance)
        assert left.minimum == combined.minimum
        assert left.maximum == combined.maximum

    def test_merge_into_empty(self):
        left, right = Tally(), Tally()
        right.add(5.0)
        left.merge(right)
        assert left.count == 1
        assert left.mean == 5.0

    def test_merge_empty_is_noop(self):
        left = Tally()
        left.add(5.0)
        left.merge(Tally())
        assert left.count == 1


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
@settings(max_examples=100)
def test_property_tally_matches_naive(values):
    tally = Tally()
    for value in values:
        tally.add(value)
    mean = sum(values) / len(values)
    assert math.isclose(tally.mean, mean, rel_tol=1e-9, abs_tol=1e-6)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    assert math.isclose(tally.variance, variance, rel_tol=1e-6, abs_tol=1e-3)


class TestHistogram:
    def test_empty(self):
        assert histogram([], 4) == []

    def test_degenerate_single_value(self):
        assert histogram([3.0, 3.0], 4) == [(3.0, 3.0, 2)]

    def test_counts_sum_to_n(self):
        values = [float(v) for v in range(100)]
        bins = histogram(values, 7)
        assert sum(count for _, _, count in bins) == 100

    def test_max_value_lands_in_last_bin(self):
        bins = histogram([0.0, 10.0], 5)
        assert bins[-1][2] == 1
        assert bins[0][2] == 1

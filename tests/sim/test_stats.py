"""Unit + property tests for Tally."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import Tally


class TestTally:
    def test_empty_tally(self):
        tally = Tally()
        assert tally.count == 0
        assert tally.mean == 0.0
        assert tally.total == 0.0

    def test_mean_min_max(self):
        tally = Tally()
        for value in (1.0, 2.0, 3.0, 4.0):
            tally.add(value)
        assert tally.mean == pytest.approx(2.5)
        assert tally.minimum == 1.0
        assert tally.maximum == 4.0
        assert tally.total == pytest.approx(10.0)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
@settings(max_examples=100)
def test_property_tally_matches_naive(values):
    tally = Tally()
    for value in values:
        tally.add(value)
    mean = sum(values) / len(values)
    assert math.isclose(tally.mean, mean, rel_tol=1e-9, abs_tol=1e-6)
    assert (tally.minimum, tally.maximum) == (min(values), max(values))


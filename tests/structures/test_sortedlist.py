"""Unit + property tests for the bisect-backed ordered containers."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.structures.sortedlist import SortedAddresses, SortedPairs


class TestSortedAddresses:
    def test_add_and_contains(self):
        s = SortedAddresses()
        s.add(5)
        s.add(1)
        assert 5 in s
        assert 1 in s
        assert 3 not in s

    def test_iteration_sorted(self):
        s = SortedAddresses([9, 2, 7])
        assert list(s) == [2, 7, 9]

    def test_duplicate_add_raises(self):
        s = SortedAddresses([1])
        with pytest.raises(SimulationError):
            s.add(1)

    def test_remove_missing_raises(self):
        s = SortedAddresses([1])
        with pytest.raises(SimulationError):
            s.remove(2)

    def test_successor(self):
        s = SortedAddresses([10, 20])
        assert s.successor(5) == 10
        assert s.successor(10) == 10
        assert s.successor(11) == 20
        assert s.successor(21) is None

    def test_predecessor(self):
        s = SortedAddresses([10, 20])
        assert s.predecessor(10) is None
        assert s.predecessor(11) == 10
        assert s.predecessor(25) == 20

    def test_replace_keeps_rank(self):
        s = SortedAddresses([1, 5, 9])
        s.replace(5, 8)
        assert list(s) == [1, 8, 9]
        s.replace(9, 100)
        assert list(s) == [1, 8, 100]

    def test_replace_that_would_reorder_raises(self):
        s = SortedAddresses([1, 5, 9])
        with pytest.raises(SimulationError):
            s.replace(5, 9)
        with pytest.raises(SimulationError):
            s.replace(5, 1)
        with pytest.raises(SimulationError):
            s.replace(4, 6)
        assert list(s) == [1, 5, 9]

    def test_iter_above(self):
        s = SortedAddresses([1, 3, 5, 7])
        assert list(s.iter_above(3)) == [5, 7]
        assert list(s.iter_above(4)) == [5, 7]
        assert list(s.iter_above(0)) == [1, 3, 5, 7]
        assert list(s.iter_above(7)) == []


@given(st.sets(st.integers(min_value=0, max_value=10_000), max_size=100))
@settings(max_examples=100)
def test_property_successor_matches_naive(values):
    s = SortedAddresses(list(values))
    ordered = sorted(values)
    for probe in list(values)[:10] + [0, 5000, 10_001]:
        expected = next((v for v in ordered if v >= probe), None)
        assert s.successor(probe) == expected


class TestSortedPairs:
    def test_first_with_primary_at_least(self):
        pairs = SortedPairs()
        pairs.add(10, 100)
        pairs.add(10, 50)
        pairs.add(20, 10)
        assert pairs.first_with_primary_at_least(5) == (10, 50)
        assert pairs.first_with_primary_at_least(11) == (20, 10)
        assert pairs.first_with_primary_at_least(21) is None

    def test_remove(self):
        pairs = SortedPairs()
        pairs.add(10, 50)
        pairs.remove(10, 50)
        assert len(pairs) == 0

    def test_remove_missing_raises(self):
        pairs = SortedPairs()
        with pytest.raises(SimulationError):
            pairs.remove(1, 1)

    def test_ties_broken_by_lowest_secondary(self):
        pairs = SortedPairs()
        pairs.add(8, 300)
        pairs.add(8, 100)
        pairs.add(8, 200)
        assert pairs.first_with_primary_at_least(8) == (8, 100)

    def test_move_to_a_lower_rank(self):
        pairs = SortedPairs()
        for pair in [(2, 0), (5, 10), (7, 3), (9, 40)]:
            pairs.add(*pair)
        pairs.move((9, 40), (5, 50))
        assert list(pairs) == [(2, 0), (5, 10), (5, 50), (7, 3)]
        pairs.move((5, 50), (5, 49))  # same rank: one slot write
        assert list(pairs) == [(2, 0), (5, 10), (5, 49), (7, 3)]

    def test_move_rejects_missing_or_larger_pair(self):
        pairs = SortedPairs()
        pairs.add(5, 10)
        with pytest.raises(SimulationError):
            pairs.move((4, 10), (3, 10))
        with pytest.raises(SimulationError):
            pairs.move((5, 10), (6, 10))
        assert list(pairs) == [(5, 10)]


@given(
    st.sets(st.tuples(st.integers(0, 50), st.integers(0, 50)), min_size=1, max_size=40),
    st.data(),
)
@settings(max_examples=100)
def test_property_move_matches_remove_and_add(pairs, data):
    ordered = sorted(pairs)
    old = data.draw(st.sampled_from(ordered))
    below = [
        (primary, secondary)
        for primary in range(old[0] + 1) for secondary in range(51)
        if (primary, secondary) < old and (primary, secondary) not in pairs
    ]
    assume(below)
    new = data.draw(st.sampled_from(below))
    moved = SortedPairs()
    for pair in ordered:
        moved.add(*pair)
    moved.move(old, new)
    assert list(moved) == sorted((pairs - {old}) | {new})

"""Unit tests for the circular doubly-linked free list."""

import pytest

from repro.errors import SimulationError
from tests.oracles.dll import CircularDll, DllNode


def build(keys):
    dll = CircularDll()
    for key in keys:
        dll.insert(DllNode(key))
    return dll


class TestInsertion:
    def test_insert_keeps_sorted_order(self):
        dll = build([5, 1, 9, 3])
        assert dll.keys() == [1, 3, 5, 9]

    def test_head_is_smallest(self):
        dll = build([5, 1])
        assert dll.head.key == 1

    def test_circularity(self):
        dll = build([1, 2, 3])
        assert dll.head.prev.key == 3
        assert dll.head.prev.next is dll.head

    def test_insert_duplicate_key_allowed_adjacent(self):
        dll = build([2, 2, 1])
        assert dll.keys() == [1, 2, 2]

    def test_insert_node_twice_raises(self):
        dll = CircularDll()
        node = DllNode(1)
        dll.insert(node)
        with pytest.raises(SimulationError):
            dll.insert(node)

    def test_insert_after_o1_path(self):
        dll = build([1, 5])
        anchor = dll.find(1)
        dll.insert_after(anchor, DllNode(3))
        assert dll.keys() == [1, 3, 5]

    def test_insert_after_foreign_anchor_raises(self):
        dll = build([1])
        other = CircularDll()
        node = DllNode(2)
        other.insert(node)
        with pytest.raises(SimulationError):
            dll.insert_after(node, DllNode(3))


class TestRemoval:
    def test_remove_middle(self):
        dll = build([1, 2, 3])
        dll.remove(dll.find(2))
        assert dll.keys() == [1, 3]

    def test_remove_head_advances_head(self):
        dll = build([1, 2, 3])
        dll.remove(dll.head)
        assert dll.head.key == 2

    def test_remove_last_empties(self):
        dll = build([7])
        dll.remove(dll.head)
        assert len(dll) == 0
        assert dll.head is None

    def test_remove_foreign_node_raises(self):
        dll = build([1])
        with pytest.raises(SimulationError):
            dll.remove(DllNode(1))

    def test_pop_head(self):
        dll = build([4, 2, 8])
        assert dll.pop_head().key == 2
        assert dll.keys() == [4, 8]

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            CircularDll().pop_head()

    def test_removed_node_reinsertable(self):
        dll = build([1, 2])
        node = dll.find(1)
        dll.remove(node)
        dll.insert(node)
        assert dll.keys() == [1, 2]


class TestQueries:
    def test_first_at_or_after(self):
        dll = build([10, 20, 30])
        assert dll.first_at_or_after(15).key == 20
        assert dll.first_at_or_after(20).key == 20
        assert dll.first_at_or_after(31) is None

    def test_find_missing_returns_none(self):
        dll = build([10, 20])
        assert dll.find(15) is None

    def test_iteration_visits_each_once(self):
        dll = build(list(range(10)))
        assert [n.key for n in dll] == list(range(10))

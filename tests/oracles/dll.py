"""Circular doubly-linked list, as the paper's free-list structure.

"For smaller blocks, a circular doubly linked list of free blocks is
maintained in sorted order."  This module implements that structure with
O(1) unlink given a node and ordered insertion helpers.  The restricted
buddy allocator keys nodes by disk address and walks them in address order
when hunting for a contiguous or nearby block.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import SimulationError


class DllNode:
    """A node in a :class:`CircularDll`; carries an ordering ``key``."""

    __slots__ = ("key", "value", "prev", "next", "owner")

    def __init__(self, key: int, value: Any = None) -> None:
        self.key = key
        self.value = value
        self.prev: "DllNode | None" = None
        self.next: "DllNode | None" = None
        self.owner: "CircularDll | None" = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DllNode key={self.key}>"


class CircularDll:
    """Circular doubly-linked list ordered by node key.

    A sentinel-free circular list: ``head`` points at the smallest key.
    Insertion keeps sorted order; ``insert_after`` supports O(1) placement
    when the caller already knows the predecessor (the common case when
    freeing a block adjacent to a known neighbour).
    """

    def __init__(self) -> None:
        self.head: DllNode | None = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[DllNode]:
        """Iterate nodes in key order, starting from the head."""
        node = self.head
        for _ in range(self._size):
            assert node is not None
            yield node
            node = node.next

    def insert(self, node: DllNode) -> None:
        """Insert keeping sorted order (linear scan from head).

        The restricted buddy policy keeps these lists short (blocks appear
        only while a buddy is in use), so a linear scan matches both the
        1991 implementation and the observed workload.
        """
        if node.owner is not None:
            raise SimulationError("node already belongs to a list")
        if self.head is None:
            node.prev = node.next = node
            self.head = node
        elif node.key < self.head.key:
            self._link_before(self.head, node)
            self.head = node
        else:
            current = self.head
            while current.next is not self.head and current.next.key <= node.key:
                current = current.next
            self._link_before(current.next, node)
        node.owner = self
        self._size += 1

    def insert_after(self, anchor: DllNode, node: DllNode) -> None:
        """O(1) insert of ``node`` directly after ``anchor``.

        The caller asserts ``anchor.key <= node.key <= anchor.next.key``
        (modulo wraparound); sorted order is the caller's responsibility.
        """
        if anchor.owner is not self:
            raise SimulationError("anchor is not in this list")
        if node.owner is not None:
            raise SimulationError("node already belongs to a list")
        self._link_before(anchor.next, node)
        node.owner = self
        self._size += 1

    def remove(self, node: DllNode) -> None:
        """O(1) unlink of a node known to be in this list."""
        if node.owner is not self:
            raise SimulationError("node is not in this list")
        if self._size == 1:
            self.head = None
        else:
            node.prev.next = node.next
            node.next.prev = node.prev
            if self.head is node:
                self.head = node.next
        node.prev = node.next = None
        node.owner = None
        self._size -= 1

    def pop_head(self) -> DllNode:
        """Remove and return the smallest-key node."""
        if self.head is None:
            raise SimulationError("pop from empty list")
        node = self.head
        self.remove(node)
        return node

    def first_at_or_after(self, key: int) -> DllNode | None:
        """First node with ``node.key >= key``, or None.

        Linear scan in key order; used to find the free block nearest after
        a target address when hunting for contiguity.
        """
        for node in self:
            if node.key >= key:
                return node
        return None

    def find(self, key: int) -> DllNode | None:
        """Node with exactly this key, or None."""
        for node in self:
            if node.key == key:
                return node
            if node.key > key:
                return None
        return None

    def keys(self) -> list[int]:
        """All keys in order (mainly for tests and debugging)."""
        return [node.key for node in self]

    @staticmethod
    def _link_before(successor: DllNode, node: DllNode) -> None:
        predecessor = successor.prev
        node.prev = predecessor
        node.next = successor
        predecessor.next = node
        successor.prev = node

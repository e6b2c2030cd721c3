"""Bisect-backed sorted containers for address and size indexing.

The allocators need three ordered queries fast: "is address X free",
"first free address >= X" (for contiguity hunting), and "smallest free
extent with length >= N" (for best-fit).  These thin wrappers around
``bisect`` on a compact Python list provide them with O(log n) search and
C-speed memmove inserts, which comfortably beats pointer-chasing structures
at the list sizes the simulations produce.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Iterator

from ..errors import SimulationError


class SortedAddresses:
    """A sorted set of integer addresses with successor/predecessor queries."""

    __slots__ = ("_items",)

    def __init__(self, items: list[int] | None = None) -> None:
        self._items: list[int] = sorted(items) if items else []

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, address: int) -> bool:
        index = bisect_left(self._items, address)
        return index < len(self._items) and self._items[index] == address

    def __iter__(self) -> Iterator[int]:
        return iter(self._items)

    def add(self, address: int) -> None:
        """Insert a new address; duplicates are an error (a block cannot be freed twice)."""
        index = bisect_left(self._items, address)
        if index < len(self._items) and self._items[index] == address:
            raise SimulationError(f"address {address} already present")
        self._items.insert(index, address)

    def remove(self, address: int) -> None:
        """Remove an address known to be present."""
        index = bisect_left(self._items, address)
        if index >= len(self._items) or self._items[index] != address:
            raise SimulationError(f"address {address} not present")
        del self._items[index]

    def replace(self, old: int, new: int) -> None:
        """Overwrite member ``old`` with ``new`` at the same rank.

        For a change that cannot reorder the set (an interval's start
        moving up inside the gap before the next member): one bisect and
        one slot write instead of a delete and an insert.

        Raises:
            SimulationError: ``old`` is absent, or ``new`` would not sit
                strictly between ``old``'s neighbours.
        """
        items = self._items
        index = bisect_left(items, old)
        if index >= len(items) or items[index] != old:
            raise SimulationError(f"address {old} not present")
        if (index and items[index - 1] >= new) or (
            index + 1 < len(items) and items[index + 1] <= new
        ):
            raise SimulationError(
                f"replacing {old} with {new} would break the order"
            )
        items[index] = new

    def iter_above(self, address: int) -> Iterator[int]:
        """Members greater than ``address``, in order.

        Starts at the bisected rank without stepping through the members
        below it.  The set must not change while the iterator is in use.
        """
        items = self._items
        return map(
            items.__getitem__, range(bisect_right(items, address), len(items))
        )

    def successor(self, address: int) -> int | None:
        """Smallest member >= ``address``, or None."""
        index = bisect_left(self._items, address)
        if index < len(self._items):
            return self._items[index]
        return None

    def predecessor(self, address: int) -> int | None:
        """Largest member < ``address``, or None."""
        index = bisect_left(self._items, address)
        if index > 0:
            return self._items[index - 1]
        return None


class SortedPairs:
    """A sorted multiset of ``(primary, secondary)`` integer pairs.

    Used as the best-fit size index: pairs are ``(length, start)`` so the
    smallest adequate extent (ties broken by lowest address) is a single
    bisect away.
    """

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: list[tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._items)

    def add(self, primary: int, secondary: int) -> None:
        """Insert a pair (duplicates allowed only if truly distinct pairs)."""
        insort(self._items, (primary, secondary))

    def remove(self, primary: int, secondary: int) -> None:
        """Remove a pair known to be present."""
        pair = (primary, secondary)
        index = bisect_left(self._items, pair)
        if index >= len(self._items) or self._items[index] != pair:
            raise SimulationError(f"pair {pair} not present")
        del self._items[index]

    def move(self, old: tuple[int, int], new: tuple[int, int]) -> None:
        """Replace pair ``old`` (known present) with a smaller pair ``new``.

        When ``new`` keeps ``old``'s rank (a shrinking interval that stays
        the largest, say) this is a single slot write.  Otherwise the
        pair is deleted and inserted lower, two memmoves, which beat
        shifting the pairs between the ranks one by one even when they
        are few.
        """
        items = self._items
        index = bisect_left(items, old)
        if index >= len(items) or items[index] != old:
            raise SimulationError(f"pair {old} not present")
        if not new < old:
            raise SimulationError(f"pair {new} is not below {old}")
        target = bisect_left(items, new, 0, index)
        if target == index:
            items[index] = new
        else:
            del items[index]
            items.insert(target, new)

    def first_with_primary_at_least(self, minimum: int) -> tuple[int, int] | None:
        """Smallest pair whose primary >= ``minimum``, or None.

        For the best-fit index this is "the smallest free extent that still
        fits", with the lowest start address among equals.
        """
        index = bisect_left(self._items, (minimum, -1))
        if index < len(self._items):
            return self._items[index]
        return None

"""Reference binary buddy free store: Koch's per-order free lists.

This is the free space :class:`repro.alloc.buddy.BinaryBuddyAllocator`
kept before it ran on :class:`repro.alloc.freestore.LadderFreeStore`:
one sorted address list per order, a descending cover of power-of-two
segments for a non-power-of-two capacity, blocks split by peeling
halves downward, and freed blocks coalesced by the XOR buddy rule until
the buddy is busy or the block is a whole segment.  The differential
tests drive it and the production store through identical take, split
and release sequences and require identical addresses and identical
``free_by_order`` snapshots at every step.  Do not optimize this
module; its value is that it stays simple and different.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.errors import SimulationError


class ReferenceBuddyStore:
    """Per-order free lists over a descending power-of-two segment cover."""

    def __init__(self, capacity_units: int) -> None:
        self._free_by_order: dict[int, list[int]] = {}
        self._segments: list[tuple[int, int]] = []  # (start, order)
        position = 0
        remaining = capacity_units
        while remaining > 0:
            order = remaining.bit_length() - 1  # largest power <= remaining
            self._segments.append((position, order))
            self._free_by_order.setdefault(order, []).append(position)
            position += 1 << order
            remaining -= 1 << order
        self._segment_starts = [start for start, _ in self._segments]
        self.max_order = max(order for _, order in self._segments)

    @property
    def free_units(self) -> int:
        return sum(
            len(addresses) << order
            for order, addresses in self._free_by_order.items()
        )

    def buddy_of(self, address: int, order: int) -> int | None:
        """The buddy address of a block, or None at segment scale."""
        index = bisect_right(self._segment_starts, address) - 1
        seg_start, seg_order = self._segments[index]
        if order >= seg_order:
            return None  # the block *is* a whole segment
        buddy = address ^ (1 << order)
        if buddy < seg_start or buddy + (1 << order) > seg_start + (1 << seg_order):
            raise SimulationError(f"buddy {buddy} straddles a segment")
        return buddy

    def take_exact(self, order: int) -> int | None:
        """Take the lowest free block of exactly ``2**order`` units."""
        free_list = self._free_by_order.get(order)
        if not free_list:
            return None
        return free_list.pop(0)

    def take_split(self, order: int) -> int | None:
        """Split the lowest block of the smallest larger order; keep the
        low ``2**order`` piece and free the peeled upper halves."""
        for larger in range(order + 1, self.max_order + 1):
            candidate = self.take_exact(larger)
            if candidate is None:
                continue
            for current in range(larger - 1, order - 1, -1):
                self._add(candidate + (1 << current), current)
            return candidate
        return None

    def release(self, address: int, order: int) -> None:
        """Free a block, coalescing with free buddies as far as possible."""
        while True:
            buddy = self.buddy_of(address, order)
            if buddy is None:
                break
            free_list = self._free_by_order.get(order, [])
            index = bisect_left(free_list, buddy)
            if index == len(free_list) or free_list[index] != buddy:
                break
            del free_list[index]
            address = min(address, buddy)
            order += 1
        self._add(address, order)

    def _add(self, address: int, order: int) -> None:
        free_list = self._free_by_order.setdefault(order, [])
        index = bisect_left(free_list, address)
        if index < len(free_list) and free_list[index] == address:
            raise SimulationError(f"block {address} of order {order} already free")
        free_list.insert(index, address)

    def free_by_order(self) -> dict[str, list[int]]:
        """``{str(order): sorted addresses}``, orders ascending, non-empty."""
        return {
            str(order): list(addresses)
            for order, addresses in sorted(self._free_by_order.items())
            if addresses
        }

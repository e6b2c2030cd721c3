"""Retained reference free store for the restricted buddy policy.

This module preserves the pre-optimization free-space structures —
the paper-literal :class:`ReferenceFreeBlockList` (a circular doubly
linked list kept in lock step with an address dict and a bisect index)
and the :class:`ReferenceLadderFreeStore` built on it — exactly as they
shipped before the allocator hot-path rewrite.

It is the allocation-layer analogue of the reference event engine
(``Simulator(immediate_queue=False)``): a slow, structurally independent
implementation whose decisions define correctness.  The randomized
differential tests drive the production :class:`~repro.alloc.freestore.
LadderFreeStore` and this reference store through identical operation
sequences and require identical answers and identical snapshots at every
step.  Do not optimize this module; its value is that it stays simple
and different.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.structures.sortedlist import SortedAddresses

from .bitmap import Bitmap
from .dll import CircularDll, DllNode


class ReferenceFreeBlockList:
    """Sorted circular doubly-linked free list with fast indexes."""

    __slots__ = ("_dll", "_nodes", "_index")

    def __init__(self) -> None:
        self._dll = CircularDll()
        self._nodes: dict[int, DllNode] = {}
        self._index = SortedAddresses()

    def __len__(self) -> int:
        return len(self._dll)

    def __contains__(self, address: int) -> bool:
        return address in self._nodes

    def add(self, address: int) -> None:
        """Insert a free block (error if already present — double free)."""
        if address in self._nodes:
            raise SimulationError(f"block {address} already free")
        node = DllNode(address)
        # Place via the bisect index: O(log n) to find the predecessor,
        # O(1) to link, versus the paper's linear walk.
        predecessor = self._index.predecessor(address)
        self._index.add(address)
        if predecessor is None:
            self._dll.insert(node)  # becomes head (or list was empty)
        else:
            self._dll.insert_after(self._nodes[predecessor], node)
        self._nodes[address] = node

    def remove(self, address: int) -> None:
        """Remove a block known to be on the list."""
        node = self._nodes.pop(address, None)
        if node is None:
            raise SimulationError(f"block {address} not on free list")
        self._dll.remove(node)
        self._index.remove(address)

    def first(self) -> int | None:
        """Lowest free address, or None."""
        return self._index.successor(0)

    def first_at_or_after(self, address: int) -> int | None:
        """Lowest free address >= ``address``, or None."""
        return self._index.successor(address)

    def first_in_range(self, low: int, high: int) -> int | None:
        """Lowest free address in ``[low, high)``, or None."""
        candidate = self._index.successor(low)
        if candidate is not None and candidate < high:
            return candidate
        return None

    def addresses(self) -> list[int]:
        """All free addresses in order."""
        return list(self._index)

    def check_consistent(self) -> None:
        """Verify DLL, dict, and index agree (test hook)."""
        dll_keys = self._dll.keys()
        if dll_keys != self.addresses():
            raise SimulationError("DLL and index disagree")
        if set(dll_keys) != set(self._nodes):
            raise SimulationError("DLL and node dict disagree")


class ReferenceLadderFreeStore:
    """The pre-rewrite aligned multi-size free store (reference copy).

    Same contract as :class:`~repro.alloc.freestore.LadderFreeStore`
    (without the region summaries): aligned split/coalesce over a ladder
    of block sizes, a bitmap for maximum-size blocks, one free list per
    smaller size.  Kept verbatim so the differential property tests have
    an independent implementation to compare against.
    """

    def __init__(self, capacity_units: int, sizes: tuple[int, ...]) -> None:
        if not sizes or any(s <= 0 for s in sizes):
            raise SimulationError(f"bad ladder {sizes}")
        if list(sizes) != sorted(set(sizes)):
            raise SimulationError(f"ladder must be ascending/unique: {sizes}")
        for small, large in zip(sizes, sizes[1:]):
            if large % small:
                raise SimulationError(f"{small} does not divide {large}")
        self.capacity_units = capacity_units
        self.sizes = tuple(sizes)
        self.max_size = sizes[-1]
        self._size_index = {size: i for i, size in enumerate(sizes)}
        self._max_slots = capacity_units // self.max_size
        self._bitmap = Bitmap(self._max_slots, all_set=True)
        self._lists: dict[int, ReferenceFreeBlockList] = {
            s: ReferenceFreeBlockList() for s in sizes[:-1]
        }
        self._free_units = self._max_slots * self.max_size
        self._seed_tail()

    def _seed_tail(self) -> None:
        """Cover the partial tail past the last max-size block."""
        position = self._max_slots * self.max_size
        remaining = self.capacity_units - position
        for size in reversed(self.sizes[:-1]):
            while remaining >= size and position % size == 0:
                self._lists[size].add(position)
                position += size
                remaining -= size
                self._free_units += size
        # Any residue smaller than the smallest block is unaddressable.

    # -- queries ------------------------------------------------------------

    @property
    def free_units(self) -> int:
        """Units on free lists + free max blocks."""
        return self._free_units

    def region_has_exact(self, size: int, region: int) -> bool:
        """Conservative answer: always scan.

        The production store's region summaries may only *skip* regions
        that hold nothing; answering True for every region reproduces the
        pre-summary behaviour exactly, which is what lets this reference
        store drop into a :class:`~repro.alloc.restricted.
        RestrictedBuddyAllocator` for differential runs.
        """
        return True

    def region_has_splittable(self, size: int, region: int) -> bool:
        """Conservative answer: always scan (see :meth:`region_has_exact`)."""
        return True

    def is_max_size(self, size: int) -> bool:
        """True for the ladder's largest size (bitmap-managed)."""
        return size == self.max_size

    def free_exact(
        self, size: int, low: int, high: int, prefer: int | None = None
    ) -> int | None:
        """Find a free block of exactly ``size`` within ``[low, high)``."""
        if size == self.max_size:
            return self._free_max_in(low, high, prefer)
        free_list = self._lists[size]
        if prefer is not None and prefer % size == 0:
            if low <= prefer < high and prefer in free_list:
                return prefer
        if prefer is not None:
            candidate = free_list.first_at_or_after(max(prefer, low))
            if candidate is not None and candidate < high:
                return candidate
        return free_list.first_in_range(low, high)

    def _free_max_in(
        self, low: int, high: int, prefer: int | None
    ) -> int | None:
        low_slot = -(-low // self.max_size)
        high_slot = min(high // self.max_size, self._max_slots)
        if prefer is not None and prefer % self.max_size == 0:
            slot = prefer // self.max_size
            if low_slot <= slot < high_slot and self._bitmap.test(slot):
                return prefer
            found = self._bitmap.first_set_in_range(
                max(slot, low_slot), high_slot
            )
            if found is not None:
                return found * self.max_size
        found = self._bitmap.first_set_in_range(low_slot, high_slot)
        if found is None:
            return None
        return found * self.max_size

    def splittable(
        self, size: int, low: int, high: int, prefer: int | None = None
    ) -> tuple[int, int] | None:
        """Find a *larger* free block in range that could be split."""
        start_index = self._size_index[size] + 1
        for larger in self.sizes[start_index:]:
            candidate = self.free_exact(larger, low, high, prefer)
            if candidate is not None:
                return candidate, larger
        return None

    def take_in_region(
        self, size: int, low: int, high: int, prefer: int | None = None
    ) -> int | None:
        """Find and take an exact-size block (compositional reference
        form of the production store's fused hot-path method)."""
        found = self.free_exact(size, low, high, prefer)
        if found is None:
            return None
        self.take(found, size)
        return found

    def take_split_in_region(
        self, size: int, low: int, high: int, prefer: int | None = None
    ) -> int | None:
        """Find, split, and take from a larger block (reference form)."""
        found = self.splittable(size, low, high, prefer)
        if found is None:
            return None
        return self.take_split(found[0], found[1], size)

    def take_run_in_region(
        self,
        size: int,
        low: int,
        high: int,
        prefer: int | None,
        max_blocks: int,
    ) -> tuple[int, int] | None:
        """Take a run of consecutive exact-size blocks (reference form).

        Compositional mirror of the production store's batched streak:
        one find-and-take for the first block, then repeated probes that
        stop the moment a probe would not land exactly on the previous
        block's end.  Returns ``(start, count)`` or None.
        """
        start = self.take_in_region(size, low, high, prefer)
        if start is None:
            return None
        taken = 1
        expected = start + size
        while taken < max_blocks:
            found = self.free_exact(size, low, high, expected)
            if found != expected:
                break
            self.take(expected, size)
            taken += 1
            expected += size
        return start, taken

    # -- mutation ------------------------------------------------------------

    def take(self, address: int, size: int) -> None:
        """Take a known-free block of exactly ``size`` at ``address``."""
        if address % size:
            raise SimulationError(f"misaligned take: {address} % {size}")
        if size == self.max_size:
            self._bitmap.clear(address // self.max_size)
        else:
            self._lists[size].remove(address)
        self._free_units -= size

    def take_split(self, address: int, block_size: int, want_size: int) -> int:
        """Split a free ``block_size`` block, taking its leading ``want_size``."""
        if block_size <= want_size:
            raise SimulationError("split target not larger than want size")
        self.take(address, block_size)
        current_index = self._size_index[block_size]
        want_index = self._size_index[want_size]
        for level in range(current_index, want_index, -1):
            child = self.sizes[level - 1]
            parent = self.sizes[level]
            for sibling in range(address + child, address + parent, child):
                self._lists[child].add(sibling)
                self._free_units += child
        return address

    def release(self, address: int, size: int) -> None:
        """Free a block, coalescing full sibling groups up the ladder."""
        if address % size:
            raise SimulationError(f"misaligned release: {address} % {size}")
        self._check_not_already_free(address, size)
        released_units = size  # net change: coalesced siblings were already free
        index = self._size_index[size]
        while size != self.max_size:
            parent = self.sizes[index + 1]
            group_start = address - (address % parent)
            if group_start + parent > self.capacity_units:
                break  # tail group is incomplete; cannot coalesce
            free_list = self._lists[size]
            siblings = [
                sibling
                for sibling in range(group_start, group_start + parent, size)
                if sibling != address
            ]
            if not all(sibling in free_list for sibling in siblings):
                break
            for sibling in siblings:
                free_list.remove(sibling)
            address = group_start
            size = parent
            index += 1
        if size == self.max_size:
            self._bitmap.set(address // self.max_size)
        else:
            self._lists[size].add(address)
        self._free_units += released_units

    def _check_not_already_free(self, address: int, size: int) -> None:
        """Detect double frees: the block, or any block containing it,
        must not already be free."""
        for candidate in self.sizes:
            if candidate < size:
                continue
            covering = address - (address % candidate)
            if candidate == self.max_size:
                slot = covering // self.max_size
                if slot < self._max_slots and self._bitmap.test(slot):
                    raise SimulationError(
                        f"double free: [{address}, {address + size}) lies in "
                        f"free maximum block at {covering}"
                    )
            elif covering in self._lists[candidate]:
                raise SimulationError(
                    f"double free: [{address}, {address + size}) lies in "
                    f"free {candidate}-block at {covering}"
                )

    # -- validation -----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe rendering of the free structures (fingerprint hook)."""
        return {
            "free_units": self._free_units,
            "max_slots": [
                slot
                for slot in range(self._max_slots)
                if self._bitmap.test(slot)
            ],
            "lists": {
                str(size): self._lists[size].addresses()
                for size in self.sizes[:-1]
                if len(self._lists[size])
            },
        }

    def check_invariants(self) -> None:
        """Verify alignment, accounting, and the coalescing invariant."""
        total = self._bitmap.set_count * self.max_size
        for size, free_list in self._lists.items():
            free_list.check_consistent()
            for address in free_list.addresses():
                if address % size:
                    raise SimulationError(f"misaligned free block {address}/{size}")
            total += len(free_list) * size
        if total != self._free_units:
            raise SimulationError(
                f"free accounting {self._free_units} != structures {total}"
            )
        # Coalescing invariant: no complete free sibling group may linger.
        for size_index, size in enumerate(self.sizes[:-1]):
            parent = self.sizes[size_index + 1]
            free_list = self._lists[size]
            addresses = free_list.addresses()
            by_group: dict[int, int] = {}
            for address in addresses:
                group = address - (address % parent)
                by_group[group] = by_group.get(group, 0) + 1
            ratio = parent // size
            for group, count in by_group.items():
                if count >= ratio and group + parent <= self.capacity_units:
                    raise SimulationError(
                        f"uncoalesced sibling group at {group} size {size}"
                    )

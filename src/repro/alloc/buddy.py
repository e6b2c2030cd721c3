"""Binary buddy allocation (§4.1), after Koch [KOCH87].

"A file may be composed of some number of extents.  The size of each
extent is a power of two multiple of the sector size.  Each time a new
extent is required, the extent size is chosen to double the current size
of the file."  The nightly reallocation process from Koch's DTSS system is
deliberately *not* simulated — the study evaluates pure allocation.

Free space is the classic binary buddy: per-order free lists, blocks split
on demand, and freed blocks coalesce with their buddy when both halves are
free.  A non-power-of-two address space is covered by a descending forest
of power-of-two segments; buddies never straddle a segment boundary (the
greedy descending cover guarantees every segment starts at a multiple of
its own size, so the XOR buddy rule remains valid with absolute
addresses).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

from ..errors import ConfigurationError, DiskFullError
from ..sim.rng import RandomStream
from ..structures.sortedlist import SortedAddresses
from ..units import next_power_of_two
from .base import AllocFile, Allocator, Extent


def decompose_power_of_two(n_units: int, max_terms: int) -> list[int]:
    """Decompose ``n_units`` into at most ``max_terms`` powers of two.

    Greedy binary decomposition (descending); when more set bits remain
    than terms allowed, the tail is rounded up to one covering power:

    >>> decompose_power_of_two(7, 3)
    [4, 2, 1]
    >>> decompose_power_of_two(31, 3)
    [16, 8, 8]
    >>> decompose_power_of_two(100, 2)
    [64, 64]

    The result always covers ``n_units`` and never exceeds twice the
    minimal cover.
    """
    if n_units <= 0:
        raise ConfigurationError(f"cannot decompose {n_units}")
    if max_terms <= 0:
        raise ConfigurationError(f"need at least one term: {max_terms}")
    terms: list[int] = []
    remaining = n_units
    while remaining and len(terms) < max_terms - 1:
        top = 1 << (remaining.bit_length() - 1)
        terms.append(top)
        remaining -= top
    if remaining:
        terms.append(next_power_of_two(remaining))
    return terms


class BinaryBuddyAllocator(Allocator):
    """Power-of-two buddy allocation with file-doubling growth."""

    name = "buddy"

    def __init__(
        self, capacity_units: int, rng: RandomStream | None = None
    ) -> None:
        super().__init__(capacity_units, rng)
        #: free blocks per order: order -> sorted start addresses.
        self._free_by_order: dict[int, SortedAddresses] = {}
        self._segments: list[tuple[int, int]] = []  # (start, order)
        self._build_cover(capacity_units)
        self._segment_starts = [start for start, _ in self._segments]
        self.max_order = max(order for _, order in self._segments)

    def _build_cover(self, capacity_units: int) -> None:
        """Cover ``[0, capacity)`` with descending power-of-two segments."""
        position = 0
        remaining = capacity_units
        while remaining > 0:
            order = remaining.bit_length() - 1  # largest power <= remaining
            size = 1 << order
            self._segments.append((position, order))
            self._free_list(order).add(position)
            position += size
            remaining -= size

    def _free_list(self, order: int) -> SortedAddresses:
        free_list = self._free_by_order.get(order)
        if free_list is None:
            free_list = self._free_by_order[order] = SortedAddresses()
        return free_list

    # -- segment geometry -------------------------------------------------------

    def _segment_of(self, address: int) -> tuple[int, int]:
        """The (start, order) of the segment containing ``address``."""
        index = bisect_right(self._segment_starts, address) - 1
        return self._segments[index]

    def _buddy_of(self, address: int, order: int) -> int | None:
        """The buddy address of a block, or None at segment scale."""
        buddy = address ^ (1 << order)
        seg_start, seg_order = self._segment_of(address)
        if order >= seg_order:
            return None  # the block *is* a whole segment
        if buddy < seg_start or buddy + (1 << order) > seg_start + (1 << seg_order):
            return None  # pragma: no cover - impossible with aligned cover
        return buddy

    # -- block alloc / free ------------------------------------------------------

    def _allocate_block(self, order: int) -> int:
        """Take one block of exactly ``2**order`` units, splitting as needed."""
        free_list = self._free_by_order.get(order)
        if free_list is not None:
            available = free_list.pop_first()
            if available is not None:
                return available
        # Split the smallest larger block (lowest address among that order).
        for larger in range(order + 1, self.max_order + 1):
            larger_list = self._free_by_order.get(larger)
            if larger_list is None:
                continue
            candidate = larger_list.pop_first()
            if candidate is None:
                continue
            # Peel halves downward, keeping the low half each time.
            for current in range(larger - 1, order - 1, -1):
                self._free_list(current).add(candidate + (1 << current))
            return candidate
        raise self._fail(1 << order)

    def _free_block(self, address: int, order: int) -> None:
        """Return a block, coalescing with free buddies as far as possible.

        Each rung costs one bisect: ``discard`` both answers "is my buddy
        free" and takes it when it is.
        """
        while True:
            buddy = self._buddy_of(address, order)
            if buddy is None:
                break
            free_list = self._free_by_order.get(order)
            if free_list is None or not free_list.discard(buddy):
                break
            address = min(address, buddy)
            order += 1
        self._free_list(order).add(address)

    # -- policy hooks -------------------------------------------------------

    def _allocate_descriptor(self, handle: AllocFile, size_hint_units: int) -> Extent:
        start = self._allocate_block(0)
        return Extent(start, 1)

    def _extend(self, handle: AllocFile, n_units: int) -> list[Extent]:
        added: list[Extent] = []
        current_total = handle.allocated_units
        try:
            while n_units > 0:
                if current_total == 0:
                    # First extent: the smallest power of two holding the
                    # request (Koch's initial allocation).
                    size = next_power_of_two(n_units)
                else:
                    # Doubling: the new extent equals the current file size.
                    size = next_power_of_two(current_total)
                size = min(size, 1 << self.max_order)
                order = size.bit_length() - 1
                start = self._allocate_block(order)
                added.append(Extent(start, size))
                current_total += size
                n_units -= size
        except Exception:
            for extent in added:
                self._free_block(extent.start, extent.length.bit_length() - 1)
            raise
        return added

    def _release_extent(self, handle: AllocFile, extent: Extent) -> None:
        self._release_power_block(extent)

    def _release_descriptor(self, handle: AllocFile, extent: Extent) -> None:
        self._release_power_block(extent)

    def _release_power_block(self, extent: Extent) -> None:
        if extent.length & (extent.length - 1):
            raise ConfigurationError(f"non power-of-two extent {extent}")
        self._free_block(extent.start, extent.length.bit_length() - 1)

    # -- Koch's nightly reallocator (extension; excluded from the paper's
    # -- measurements, provided for the ablation) --------------------------------

    def reallocate(
        self, used_units_by_file: dict[int, int], max_extents: int = 3
    ) -> int:
        """Koch's background reallocation, run "once every day" in DTSS.

        "This reallocator shuffles extents around to reduce both the
        internal and external fragmentation.  Using this combination, most
        files are allocated in 3 extents and average under 4% internal
        fragmentation."  [KOCH87]

        For each live file: allocate its *used* size as at most
        ``max_extents`` power-of-two extents (largest first, tail rounded
        up) in fresh space, then free the old extents — the scratch-space
        order a real reallocator uses (the data must be copied somewhere
        before its old blocks can be released).  A file whose reshaped
        form cannot be placed right now is skipped, not failed.  Returns
        the number of files reshaped.  Each reshaped handle's extents and
        cumulative ends are replaced in place, so views over them (the
        file system's extent maps) stay valid.
        """
        reshaped = 0
        for file_id in sorted(self.files):
            handle = self.files[file_id]
            if not handle.extents:
                continue
            used = max(1, min(used_units_by_file.get(file_id, 0),
                              handle.allocated_units))
            sizes = decompose_power_of_two(used, max_extents)
            already_minimal = sorted(
                extent.length for extent in handle.extents
            ) == sorted(sizes)
            if already_minimal:
                continue
            old_extents = list(handle.extents)
            old_units = handle.allocated_units
            new_extents: list[Extent] = []
            try:
                for size in sizes:
                    start = self._allocate_block(size.bit_length() - 1)
                    new_extents.append(Extent(start, size))
            except DiskFullError:
                for extent in new_extents:
                    self._free_block(extent.start, extent.length.bit_length() - 1)
                continue  # no room to reshape this file tonight
            for extent in old_extents:
                self._free_block(extent.start, extent.length.bit_length() - 1)
            handle.extents[:] = new_extents
            handle.ends[:] = accumulate(sizes)
            self._allocated_units += handle.allocated_units - old_units
            reshaped += 1
        return reshaped

    # -- introspection ----------------------------------------------------------

    def free_block_counts(self) -> dict[int, int]:
        """Free blocks per order (order -> count), orders with any blocks."""
        return {
            order: len(addresses)
            for order, addresses in sorted(self._free_by_order.items())
            if len(addresses)
        }

    def snapshot_free_state(self) -> dict:
        """Free blocks per order, sorted by address (fingerprint hook)."""
        return {
            "allocated_units": self._allocated_units,
            "free_by_order": {
                str(order): list(addresses)
                for order, addresses in sorted(self._free_by_order.items())
                if len(addresses)
            },
        }

    def check_free_space(self) -> None:
        """Validate accounting: free-list units + allocated == capacity."""
        free = sum(
            len(addresses) << order
            for order, addresses in self._free_by_order.items()
        )
        if free != self.free_units:
            raise ConfigurationError(
                f"buddy free lists hold {free} units, accounting says "
                f"{self.free_units}"
            )

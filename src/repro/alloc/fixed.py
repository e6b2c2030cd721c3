"""Fixed-block allocation: the comparison baseline.

Section 5 compares every multiblock policy "against a 4K and a 16K fixed
block system which does not bias towards automatic striping or contiguous
layout".  This is the UNIX V7 lineage: files are chains of equal-size
blocks, free blocks live on a free list, and allocation comes "off the
head of this list", so as the system ages logically sequential blocks
scatter across the disk.

The free list starts in address order (a fresh mkfs), and frees push on
the head (LIFO) — so the aging behaviour the paper describes emerges from
the churn of the workload itself rather than being injected artificially.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..sim.rng import RandomStream
from .base import AllocFile, Allocator, Extent


class FixedBlockAllocator(Allocator):
    """Equal-size blocks from a LIFO free list.

    Args:
        capacity_units: address space size in disk units.
        block_units: block size in disk units (4 or 16 for the paper's
            4K/16K baselines with a 1K disk unit).
        aged: start from a scrambled free list (default).  "As file
            systems age, logically sequential blocks within a file get
            spread across the entire disk"; the paper's baseline is such
            an aged system, not a fresh mkfs whose free list happens to
            hand out sequential blocks.  Pass False to model a fresh disk.
    """

    name = "fixed"

    #: A chunk asking for ``r`` of the ``m`` units still missing takes
    #: ``ceil(r / block) <= ceil(m / block)`` blocks, so the chunks of a
    #: growth by ``n`` stop at exactly ``ceil(n / block)`` blocks, taken
    #: in pop order.
    CHUNK_INVARIANT = True

    def __init__(
        self,
        capacity_units: int,
        block_units: int,
        rng: RandomStream | None = None,
        aged: bool = True,
    ) -> None:
        super().__init__(capacity_units, rng)
        if block_units <= 0:
            raise ConfigurationError(f"block size must be positive: {block_units}")
        self.block_units = block_units
        self.aged = aged
        n_blocks = capacity_units // block_units
        if n_blocks == 0:
            raise ConfigurationError("capacity smaller than one block")
        # Head of the list is the *end* of this Python list (O(1) pop/push).
        # A fresh list hands out ascending addresses; an aged one is
        # scrambled, as years of allocation churn leave it.
        self._free_blocks: list[int] = [
            (n_blocks - 1 - i) * block_units for i in range(n_blocks)
        ]
        if aged:
            self.rng.fork("aging").shuffle(self._free_blocks)
        self._usable_units = n_blocks * block_units

    # -- policy hooks -------------------------------------------------------

    def _take_block(self, n_units: int) -> int:
        if not self._free_blocks:
            raise self._fail(n_units)
        return self._free_blocks.pop()

    def _allocate_descriptor(self, handle: AllocFile, size_hint_units: int) -> Extent:
        # Descriptors occupy a whole block: without sub-block sizes there
        # is nothing smaller to give out (the meta-data overhead criticism
        # of fixed-block systems, [STON81]).
        start = self._take_block(self.block_units)
        return Extent(start, self.block_units)

    def _extend(
        self, handle: AllocFile, n_units: int, step_units: int | None = None
    ) -> list[Extent]:
        block_units = self.block_units
        n_blocks = -(-n_units // block_units)
        free = self._free_blocks
        if len(free) < n_blocks:
            raise self._fail(n_units)
        # The list's tail is its head: the last n_blocks entries, read
        # backwards, are what n_blocks pops would return, in that order.
        added = [Extent(start, block_units) for start in reversed(free[-n_blocks:])]
        del free[-n_blocks:]
        return added

    def _release_extent(self, handle: AllocFile, extent: Extent) -> None:
        if extent.length != self.block_units or extent.start % self.block_units:
            raise ConfigurationError(f"foreign extent {extent} returned")
        self._free_blocks.append(extent.start)

    def _release_descriptor(self, handle: AllocFile, extent: Extent) -> None:
        self._release_extent(handle, extent)

    # -- introspection ----------------------------------------------------------

    def snapshot_free_state(self) -> dict:
        """The free list in LIFO order (fingerprint hook).

        Order matters here: the list *is* the allocation order, so two
        runs in identical logical state must render identical lists.
        """
        return {
            "allocated_units": self._allocated_units,
            "block_units": self.block_units,
            "free_blocks": list(self._free_blocks),
        }

    def check_free_space(self) -> None:
        """Validate free-list units against the accounting."""
        free = len(self._free_blocks) * self.block_units
        if free != self._usable_units - self._allocated_units:
            raise ConfigurationError(
                f"fixed free list holds {free} units, accounting says "
                f"{self._usable_units - self._allocated_units}"
            )

"""The restricted buddy policy (§4.2) — the paper's central design.

"As in the buddy system, the restricted buddy system applies the principle
that as a file's size grows, so does its block size" — but only a few
block sizes exist (e.g. 1K, 8K, 64K, 1M, 16M), logically sequential blocks
are placed physically contiguously whenever possible, and the disk may be
divided into 32M *bookkeeping regions* that cluster a file's blocks and
metadata to bound seeks when contiguity fails.

Three configuration knobs, exactly the paper's:

* the block-size ladder (Figures 1 & 2 sweep 2, 3, 4, and 5 sizes),
* the **grow factor** g: allocation moves from size ``a_i`` to ``a_{i+1}``
  "when the total size of all blocks of size a_i is equal to g * a_{i+1}",
* **clustered** vs **unclustered** free-list bookkeeping.

The allocation algorithm follows the paper's region-selection summary:

1. Select the optimal region (same as the file's last block; same as its
   descriptor; or, for descriptors, the region after the last satisfied
   request) and within it prefer the block contiguous to the file's
   previous allocation, then the nearest following block, then any exact
   block, then split a larger block (preferably the next sequential one).
2. Select any region holding a block of the correct size.
3. Only if no exact-size block exists anywhere, split a larger block in
   the next region with available space.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..sim.rng import RandomStream
from ..units import KIB, MIB, parse_size
from .base import AllocFile, Allocator, Extent
from .freestore import LadderFreeStore

#: The paper's bookkeeping region size: 32 M.
DEFAULT_REGION_BYTES = 32 * MIB


@dataclass(frozen=True)
class RestrictedBuddyConfig:
    """Configuration of one restricted buddy file system.

    Attributes:
        block_sizes_units: ascending ladder, each size dividing the next.
        grow_factor: the paper's g (1 or 2 in the sweeps).
        clustered: per-region free lists and region-conscious placement
            when True; a single global region when False.
        region_units: bookkeeping region size (32 M default).
    """

    block_sizes_units: tuple[int, ...]
    grow_factor: int = 1
    clustered: bool = True
    region_units: int = DEFAULT_REGION_BYTES // KIB

    def __post_init__(self) -> None:
        sizes = self.block_sizes_units
        if not sizes:
            raise ConfigurationError("empty block-size ladder")
        if list(sizes) != sorted(set(sizes)):
            raise ConfigurationError(f"ladder must be ascending: {sizes}")
        for small, large in zip(sizes, sizes[1:]):
            if large % small:
                raise ConfigurationError(f"{small} does not divide {large}")
        if self.grow_factor < 1:
            raise ConfigurationError(f"grow factor must be >= 1: {self.grow_factor}")
        if self.region_units <= 0:
            raise ConfigurationError("region size must be positive")

    @property
    def n_block_sizes(self) -> int:
        """Ladder length (the x-axis grouping of Figures 1 and 2)."""
        return len(self.block_sizes_units)

    def label(self) -> str:
        """Short human-readable label, e.g. ``5 sizes/grow 1/clustered``."""
        mode = "clustered" if self.clustered else "unclustered"
        return f"{self.n_block_sizes} sizes/grow {self.grow_factor}/{mode}"


def ladder_from_sizes(sizes_bytes: list[str | int], disk_unit_bytes: int) -> tuple[int, ...]:
    """Convert human block sizes (e.g. ``["1K", "8K"]``) to disk units."""
    ladder = []
    for size in sizes_bytes:
        n_bytes = parse_size(size)
        if n_bytes % disk_unit_bytes:
            raise ConfigurationError(
                f"block size {size} is not a multiple of the disk unit"
            )
        ladder.append(n_bytes // disk_unit_bytes)
    return tuple(ladder)


class RestrictedBuddyAllocator(Allocator):
    """Multi-size aligned blocks, grow policy, and region clustering."""

    name = "restricted-buddy"

    #: Every block's size and place follow from the tier state and the
    #: previous block's end, never from the request, and the run cap at
    #: the request's remainder changes no block: ``take_run_in_region``
    #: extends a run over adjacent free blocks, which is where the next
    #: chunk's preferred address points.
    CHUNK_INVARIANT = True

    def __init__(
        self,
        capacity_units: int,
        config: RestrictedBuddyConfig,
        rng: RandomStream | None = None,
    ) -> None:
        super().__init__(capacity_units, rng)
        self.config = config
        self.store = LadderFreeStore(
            capacity_units,
            config.block_sizes_units,
            region_units=config.region_units if config.clustered else None,
        )
        if config.clustered:
            self._region_units = config.region_units
        else:
            self._region_units = capacity_units  # one region == no clustering
        # Each region's ``[low, high)`` window, the last one cut at the
        # capacity: the block hunt reads one instead of recomputing it.
        self._windows = tuple(
            (low, min(low + self._region_units, capacity_units))
            for low in range(0, capacity_units, self._region_units)
        )
        self._n_regions = len(self._windows)
        self._last_satisfied_region = 0
        # Everything _extend reads per call that cannot change after
        # construction (config is a frozen dataclass; capacity is fixed
        # here), packed so the hot loop pays one attribute lookup and a
        # tuple unpack instead of four lookups.  The store is deliberately
        # NOT cached: tests swap in a shadow store after construction.
        self._extend_hot = (
            config.block_sizes_units,
            config.grow_factor,
            self._region_units,
            len(config.block_sizes_units) - 1,
        )
        # Tier bookkeeping lives in handle.policy_state:
        #   "tier": index into the ladder of the current allocation size
        #   "tier_units": units allocated at that tier so far
        #   "prev_end": end address of the most recent allocation

    # -- the block hunt ------------------------------------------------------------

    def _take_blocks(
        self, size: int, optimal: int, prefer: int | None, want: int
    ) -> tuple[int, int]:
        """Take up to ``want`` contiguous ``size`` blocks: ``(start, count)``.

        The paper's block hunt.  Step 1 is the optimal region: the
        exact-size run at ``prefer`` (else from the nearest block after
        it, else from the region's first), else one block split from a
        larger block there, preferably the next sequential one.  Only
        this exact probe takes a run; a split and the later steps
        (:meth:`_take_elsewhere`) take one block.  Raises DiskFullError
        when nothing anywhere can satisfy the request.
        """
        store = self.store
        low, high = self._windows[optimal]
        hit = store.take_run_in_region(size, low, high, prefer, want)
        if hit is None:
            start = store.take_split_in_region(size, low, high, prefer)
            if start is None:
                start = self._take_elsewhere(size, optimal)
            hit = (start, 1)
        start, count = hit
        self._last_satisfied_region = (
            (start + (count - 1) * size) // self._region_units
        )
        return hit

    def _take_elsewhere(self, size: int, optimal: int) -> int:
        """Steps 2 and 3: one ``size`` block from another region.

        Step 2 takes an exact-size block from the next region around the
        ring that has one; step 3 splits a larger block in the next
        region that has one.  The store's per-region counts let both
        rings skip empty regions in O(1).
        """
        store = self.store
        windows = self._windows
        n_regions = self._n_regions
        ring = range(optimal + 1, optimal + n_regions)
        for shifted in ring:
            region = shifted % n_regions
            if store.region_has_exact(size, region):
                low, high = windows[region]
                hit = store.take_run_in_region(size, low, high, None, 1)
                if hit is not None:
                    return hit[0]
        for shifted in ring:
            region = shifted % n_regions
            if store.region_has_splittable(size, region):
                low, high = windows[region]
                start = store.take_split_in_region(size, low, high)
                if start is not None:
                    return start
        raise self._fail(size)

    # -- grow policy ---------------------------------------------------------------

    def _retier_after_truncate(self, handle: AllocFile) -> None:
        """Recompute tier state from the surviving extents."""
        state = handle.policy_state
        if not handle.extents:
            state["tier"] = 0
            state["tier_units"] = 0
            state["prev_end"] = (
                handle.descriptor.end if handle.descriptor is not None else None
            )
            return
        last_size = handle.extents[-1].length
        tier_units = 0
        for extent in reversed(handle.extents):
            if extent.length != last_size:
                break
            tier_units += extent.length
        state["tier"] = self.config.block_sizes_units.index(last_size)
        state["tier_units"] = tier_units
        state["prev_end"] = handle.extents[-1].end

    # -- policy hooks -------------------------------------------------------

    def _allocate_descriptor(self, handle: AllocFile, size_hint_units: int) -> Extent:
        smallest = self.config.block_sizes_units[0]
        # "If the allocation request is for a file descriptor, the optimal
        # region is the region after the region in which the last request
        # was satisfied."
        region = (self._last_satisfied_region + 1) % self._n_regions
        address, _ = self._take_blocks(smallest, region, None, 1)
        handle.policy_state["prev_end"] = None
        handle.policy_state["tier"] = 0
        handle.policy_state["tier_units"] = 0
        return Extent(address, smallest)

    def _extend(
        self, handle: AllocFile, n_units: int, step_units: int | None = None
    ) -> list[Extent]:
        # The hot loop: tier, tier_units, and prev_end live in locals and
        # are written back once on success.  On failure the rollback
        # recomputes them from the surviving extents (which never include
        # ``added``), so deferring the writes cannot change the outcome.
        sizes, grow_factor, region_units, last_tier = self._extend_hot
        state = handle.policy_state
        tier = state.get("tier", 0)
        tier_units = state.get("tier_units", 0)
        prev_end = state.get("prev_end")
        descriptor = handle.descriptor
        added: list[Extent] = []
        try:
            remaining = n_units
            while remaining > 0:
                size = sizes[tier]
                if prev_end is not None:
                    optimal = (prev_end - 1) // region_units
                    prefer = prev_end
                elif descriptor is not None:
                    optimal = descriptor.start // region_units
                    # First data block: near the descriptor is "close to
                    # related blocks (meta data)".
                    prefer = descriptor.end
                else:
                    optimal = self._last_satisfied_region
                    prefer = None
                # Ask for every block the block-at-a-time loop would take
                # contiguously: block by block, the next preferred address
                # is exactly the previous block's end.  Capped at the
                # blocks this tier still owes before its size bump and at
                # the request's remainder.
                want = -(-remaining // size)
                # The bump cap never lowers a single-block request (it is
                # clamped to >= 1), so skip its divisions when want == 1.
                if want > 1 and tier < last_tier:
                    until_bump = -(
                        -(grow_factor * sizes[tier + 1] - tier_units)
                        // size
                    )
                    if until_bump < 1:
                        until_bump = 1
                    if until_bump < want:
                        want = until_bump
                address, run = self._take_blocks(size, optimal, prefer, want)
                for _ in range(run):
                    added.append(Extent(address, size))
                    address += size
                prev_end = address
                tier_units += run * size
                if tier < last_tier and tier_units >= grow_factor * sizes[tier + 1]:
                    tier += 1
                    tier_units = 0
                remaining -= run * size
        except Exception:
            for extent in reversed(added):
                self.store.release(extent.start, extent.length)
            self._retier_after_truncate(handle)
            raise
        state["tier"] = tier
        state["tier_units"] = tier_units
        state["prev_end"] = prev_end
        return added

    def _release_extent(self, handle: AllocFile, extent: Extent) -> None:
        self.store.release(extent.start, extent.length)
        # Caller (base truncate/delete) pops extents tail-first; retier
        # lazily afterwards via _retier_after_truncate in truncate().

    def _release_descriptor(self, handle: AllocFile, extent: Extent) -> None:
        self.store.release(extent.start, extent.length)

    def truncate(self, handle: AllocFile, n_units: int) -> int:
        """Truncate, then recompute the file's grow-policy tier."""
        freed = super().truncate(handle, n_units)
        if freed:
            self._retier_after_truncate(handle)
        return freed

    # -- introspection ----------------------------------------------------------

    def snapshot_free_state(self) -> dict:
        """Ladder-store bitmap and free lists (fingerprint hook)."""
        return {
            "allocated_units": self._allocated_units,
            "store": self.store.snapshot(),
        }

    def check_free_space(self) -> None:
        """Validate store invariants and unit accounting (test hook)."""
        self.store.check_invariants()
        unaddressable = self.capacity_units - self._initial_store_units()
        if self.store.free_units + self.allocated_units + unaddressable != (
            self.capacity_units
        ):
            raise ConfigurationError("restricted buddy accounting mismatch")

    def _initial_store_units(self) -> int:
        """Units the store could address at construction time."""
        smallest = self.config.block_sizes_units[0]
        return self.capacity_units - (self.capacity_units % smallest)

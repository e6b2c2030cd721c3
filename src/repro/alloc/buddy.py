"""Binary buddy allocation (§4.1), after Koch [KOCH87].

"A file may be composed of some number of extents.  The size of each
extent is a power of two multiple of the sector size.  Each time a new
extent is required, the extent size is chosen to double the current size
of the file."  The nightly reallocation process from Koch's DTSS system is
deliberately *not* simulated — the study evaluates pure allocation.

Free space is the classic binary buddy, run on the restricted policy's
:class:`~repro.alloc.freestore.LadderFreeStore` over the ladder 1, 2, 4,
…, 2**k (2**k the largest power of two within the capacity) with no
regions: a binary buddy system is a restricted buddy system whose sizes
are every power of two.  Every decision is the one Koch's per-order free
lists, descending segment cover and XOR coalescing walk made:

* The store seeds the partial tail past its one maximum-size block with
  the largest aligned ladder blocks that fit, which over a power-of-two
  ladder is exactly the descending power-of-two cover of a
  non-power-of-two capacity.
* The store refuses to coalesce a sibling group that ends past the
  capacity, which is exactly the rule that a segment-sized block has no
  buddy (each later segment starts at a multiple of twice its size, so
  its would-be group always overruns the capacity).
* The store takes the lowest free block of the exact size first, else
  splits the lowest block of the smallest larger size and keeps its low
  end, as Koch's lists did.
"""

from __future__ import annotations

from itertools import accumulate

from ..errors import ConfigurationError, DiskFullError
from ..sim.rng import RandomStream
from ..units import next_power_of_two
from .base import AllocFile, Allocator, Extent
from .freestore import LadderFreeStore


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

    #: Every extent after a file's first is the file's size so far, which
    #: no chunk boundary changes; only the first extent reads the request,
    #: and in the chunk loop that is the first chunk, ``min(step, n)``.
    CHUNK_INVARIANT = True

    def __init__(
        self, capacity_units: int, rng: RandomStream | None = None
    ) -> None:
        super().__init__(capacity_units, rng)
        max_order = capacity_units.bit_length() - 1
        self.store = LadderFreeStore(
            capacity_units, tuple(1 << order for order in range(max_order + 1))
        )

    def _take(self, size: int) -> int:
        """Take the lowest free block of exactly ``size`` units, else
        split the lowest block of the smallest larger size."""
        store = self.store
        capacity = self.capacity_units
        run = store.take_run_in_region(size, 0, capacity, None, 1)
        if run is not None:
            return run[0]
        start = store.take_split_in_region(size, 0, capacity)
        if start is None:
            raise self._fail(size)
        return start

    # -- policy hooks -------------------------------------------------------

    def _allocate_descriptor(self, handle: AllocFile, size_hint_units: int) -> Extent:
        return Extent(self._take(1), 1)

    def _extend(
        self, handle: AllocFile, n_units: int, step_units: int | None = None
    ) -> list[Extent]:
        added: list[Extent] = []
        current_total = handle.allocated_units
        max_size = self.store.max_size
        first_request = n_units
        if step_units is not None and step_units < n_units:
            first_request = step_units
        try:
            while n_units > 0:
                if current_total == 0:
                    # First extent: the smallest power of two holding the
                    # (first) request (Koch's initial allocation).
                    size = next_power_of_two(first_request)
                else:
                    # Doubling: the new extent equals the current file size.
                    size = next_power_of_two(current_total)
                size = min(size, max_size)
                added.append(Extent(self._take(size), size))
                current_total += size
                n_units -= size
        except Exception:
            for extent in added:
                self.store.release(extent.start, extent.length)
            raise
        return added

    def _release_extent(self, handle: AllocFile, extent: Extent) -> None:
        self._release_power_block(extent)

    def _release_descriptor(self, handle: AllocFile, extent: Extent) -> None:
        self._release_power_block(extent)

    def _release_power_block(self, extent: Extent) -> None:
        if extent.length & (extent.length - 1):
            raise ConfigurationError(f"non power-of-two extent {extent}")
        self.store.release(extent.start, extent.length)

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
                    new_extents.append(Extent(self._take(size), size))
            except DiskFullError:
                for extent in new_extents:
                    self.store.release(extent.start, extent.length)
                continue  # no room to reshape this file tonight
            for extent in old_extents:
                self.store.release(extent.start, extent.length)
            handle.extents[:] = new_extents
            handle.ends[:] = accumulate(sizes)
            self._allocated_units += handle.allocated_units - old_units
            reshaped += 1
        return reshaped

    # -- introspection ----------------------------------------------------------

    def snapshot_free_state(self) -> dict:
        """Free blocks per order, sorted by address (fingerprint hook).

        Rendered from the ladder store's snapshot as ``{order:
        addresses}``, orders ascending, so fingerprint timelines stay
        comparable with the per-order free lists this policy once kept.
        """
        store = self.store.snapshot()
        free_by_order = {
            str(int(size).bit_length() - 1): addresses
            for size, addresses in store["lists"].items()
        }
        max_size = self.store.max_size
        if store["max_slots"]:
            free_by_order[str(max_size.bit_length() - 1)] = [
                slot * max_size for slot in store["max_slots"]
            ]
        return {
            "allocated_units": self._allocated_units,
            "free_by_order": free_by_order,
        }

    def check_free_space(self) -> None:
        """Validate store invariants and unit accounting (test hook)."""
        self.store.check_invariants()
        if self.store.free_units != self.free_units:
            raise ConfigurationError(
                f"buddy free lists hold {self.store.free_units} units, "
                f"accounting says {self.free_units}"
            )

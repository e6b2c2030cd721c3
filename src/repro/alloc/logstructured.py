"""Log-structured allocation — the paper's §6 suggestion, implemented.

"In the small file environment we might want to incorporate policies from
a log structured file system to allocate blocks [ROSE90]."  This
extension policy (not part of the paper's measured comparison) allocates
every request at a rolling *log head*: new data always lands in the next
free space after the most recent allocation, threading through holes left
by deletes and wrapping at the end of the address space — the "threaded
log" variant of LFS allocation, which needs no segment cleaner.

Consequences the small-file environment cares about:

* writes are contiguous regardless of which file they belong to (one seek
  per burst of creation activity, the write-optimized property),
* files written together sit together (temporal locality becomes spatial),
* a file overwritten or grown later fragments — the read-optimized
  policies' weakness/strength trade, inverted.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..sim.rng import RandomStream
from ..structures.intervals import FreeExtentMap
from .base import AllocFile, Allocator, Extent


class LogStructuredAllocator(Allocator):
    """Threaded-log allocation: everything goes at the log head."""

    name = "log-structured"

    def __init__(
        self, capacity_units: int, rng: RandomStream | None = None
    ) -> None:
        super().__init__(capacity_units, rng)
        self._free = FreeExtentMap(capacity_units)
        self._head = 0

    # -- the log head --------------------------------------------------------

    @property
    def head(self) -> int:
        """Current log-head address (next allocation lands at/after it)."""
        return self._head

    def _take_from_head(self, n_units: int) -> list[Extent]:
        """Take ``n_units`` starting at the head, threading through holes."""
        taken: list[Extent] = []
        remaining = n_units
        while remaining > 0:
            piece = self._free.take_up_to_from(self._head, remaining)
            if piece is None:
                for extent in taken:
                    self._free.release(extent.start, extent.length)
                raise self._fail(n_units)
            start, length = piece
            if taken and taken[-1].end == start:
                taken[-1] = Extent(taken[-1].start, taken[-1].length + length)
            else:
                taken.append(Extent(start, length))
            self._head = (start + length) % self.capacity_units
            remaining -= length
        return taken

    # -- policy hooks -------------------------------------------------------

    def _allocate_descriptor(self, handle: AllocFile, size_hint_units: int) -> Extent:
        pieces = self._take_from_head(1)
        return pieces[0]

    def _extend(self, handle: AllocFile, n_units: int) -> list[Extent]:
        return self._take_from_head(n_units)

    def _release_extent(self, handle: AllocFile, extent: Extent) -> None:
        self._free.release(extent.start, extent.length)

    def _release_descriptor(self, handle: AllocFile, extent: Extent) -> None:
        self._free.release(extent.start, extent.length)

    # -- introspection ----------------------------------------------------------

    def snapshot_free_state(self) -> dict:
        """Log head plus free holes in address order (fingerprint hook)."""
        return {
            "allocated_units": self._allocated_units,
            "head": self._head,
            "holes": [[start, length] for start, length in self._free.intervals()],
        }

    def check_free_space(self) -> None:
        """Validate the hole map against the unit accounting (test hook)."""
        self._free.check_invariants()
        if self._free.free_units != self.free_units:
            raise ConfigurationError(
                f"free map {self._free.free_units} != accounting {self.free_units}"
            )

"""Extent-based allocation (§4.3), the XPRS/[STON89] policy.

"In the extent based models, every file has an extent size associated with
it.  Each time a file grows beyond its current allocation, additional disk
storage is allocated in extent sized chunks. ... an extent may begin at
any address.  When an extent is freed, it is coalesced with its adjoining
extents if they are free."

Design parameters, as in the paper:

* **fit policy** — first-fit (address order; tends to cluster allocations
  "toward the beginning of the disk system") or best-fit (smallest
  adequate hole).
* **extent size ranges** — each range is a normal distribution whose
  standard deviation is 10 % of its mean.  A file draws its extent size
  once, at creation, from the range its :class:`ExtentSizeConfig`
  assignment rule selects (by the file's allocation-size hint).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..sim.rng import RandomStream
from ..structures.intervals import FreeExtentMap
from .base import AllocFile, Allocator, Extent

#: The paper's deviation rule: sigma = 10 % of the range mean.
DEVIATION_FRACTION = 0.10


class FitPolicy(enum.Enum):
    """Hole-selection rule for new extents."""

    FIRST_FIT = "first-fit"
    BEST_FIT = "best-fit"


@dataclass(frozen=True)
class ExtentSizeConfig:
    """The extent-size ranges of one configuration.

    Attributes:
        range_means_units: the means of the normal extent-size ranges,
            ascending, in disk units (e.g. Fig. 4's "1K, 8K, 1M" for TS).
    """

    range_means_units: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.range_means_units:
            raise ConfigurationError("need at least one extent range")
        if any(mean <= 0 for mean in self.range_means_units):
            raise ConfigurationError("extent range means must be positive")
        if list(self.range_means_units) != sorted(self.range_means_units):
            raise ConfigurationError("extent range means must be ascending")

    @property
    def n_ranges(self) -> int:
        """Number of ranges (the x-axis of Figures 4 and 5)."""
        return len(self.range_means_units)

    def pick_range_mean(self, allocation_hint_units: int) -> int:
        """Select the range a file uses, from its allocation-size hint.

        The hint is the file type's *Allocation Size* parameter (Table 2:
        "For extent based systems, mean extent size").  The closest range
        mean wins (log-scale distance, since ranges span 1K..16M); with no
        hint the smallest range is used.
        """
        if allocation_hint_units <= 0:
            return self.range_means_units[0]
        best_mean = self.range_means_units[0]
        best_distance = None
        for mean in self.range_means_units:
            larger = max(mean, allocation_hint_units)
            smaller = min(mean, allocation_hint_units)
            distance = larger / smaller  # ratio distance == log-scale
            if best_distance is None or distance < best_distance:
                best_distance = distance
                best_mean = mean
        return best_mean


class ExtentAllocator(Allocator):
    """First-fit / best-fit extent allocation over a coalescing hole list."""

    name = "extent"

    #: A file's extents all have its one size, so, as with the fixed-block
    #: policy's blocks, the chunks of a growth by ``n`` take
    #: ``ceil(n / size)`` extents in all; ``take_first_fit(size, count)``
    #: (or ``count`` best-fit takes) returns what ``count`` single takes do.
    CHUNK_INVARIANT = True

    def __init__(
        self,
        capacity_units: int,
        size_config: ExtentSizeConfig,
        fit: FitPolicy = FitPolicy.FIRST_FIT,
        rng: RandomStream | None = None,
    ) -> None:
        super().__init__(capacity_units, rng)
        self.size_config = size_config
        self.fit = fit
        self._free = FreeExtentMap(capacity_units)
        self._size_stream = self.rng.fork("extent-sizes")

    # -- placement ------------------------------------------------------------

    def _take(self, n_units: int, count: int) -> list[int]:
        """Carve ``count`` runs of ``n_units`` per the fit policy.

        First fit takes them all in one scan of the free map.  Best fit
        takes them one at a time, each from the smallest hole left, and
        hands back what it carved when one does not fit.  Either way a
        failure leaves the free map as it was.
        """
        free = self._free
        if self.fit is FitPolicy.FIRST_FIT:
            starts = free.take_first_fit(n_units, count)
            if starts is None:
                raise self._fail(n_units)
            return starts
        starts = []
        for _ in range(count):
            start = free.take_best_fit(n_units)
            if start is None:
                for taken in starts:
                    free.release(taken, n_units)
                raise self._fail(n_units)
            starts.append(start)
        return starts

    def _file_extent_units(self, handle: AllocFile, size_hint_units: int) -> int:
        """Draw the file's extent size (once, at creation)."""
        mean = self.size_config.pick_range_mean(size_hint_units)
        drawn = self._size_stream.normal(
            float(mean), DEVIATION_FRACTION * mean, minimum=1.0
        )
        return max(1, int(round(drawn)))

    # -- policy hooks -------------------------------------------------------

    def _allocate_descriptor(self, handle: AllocFile, size_hint_units: int) -> Extent:
        handle.policy_state["extent_units"] = self._file_extent_units(
            handle, size_hint_units
        )
        start = self._take(1, 1)[0]
        return Extent(start, 1)

    def _extend(
        self, handle: AllocFile, n_units: int, step_units: int | None = None
    ) -> list[Extent]:
        extent_units = handle.policy_state["extent_units"]
        count = -(-n_units // extent_units)
        return [
            Extent(start, extent_units)
            for start in self._take(extent_units, count)
        ]

    def _release_extent(self, handle: AllocFile, extent: Extent) -> None:
        self._free.release(extent.start, extent.length)

    def _release_descriptor(self, handle: AllocFile, extent: Extent) -> None:
        self._free.release(extent.start, extent.length)

    # -- introspection ----------------------------------------------------------

    def snapshot_free_state(self) -> dict:
        """Free holes in address order (fingerprint hook)."""
        return {
            "allocated_units": self._allocated_units,
            "holes": [[start, length] for start, length in self._free.intervals()],
        }

    def check_free_space(self) -> None:
        """Validate the hole list and the unit accounting (test hook)."""
        self._free.check_invariants()
        if self._free.free_units != self.free_units:
            raise ConfigurationError(
                f"free map {self._free.free_units} != accounting {self.free_units}"
            )

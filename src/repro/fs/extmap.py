"""Logical-offset → disk-address mapping for one file.

A file's allocation is an ordered list of extents; extent ``i`` holds the
units that logically follow extent ``i-1``.  The allocator's handle
(:class:`~repro.alloc.base.AllocFile`) records both the extents and their
cumulative ends, and keeps them in step itself.  :class:`ExtentMap` is
only the lookup over that record: locating a logical offset is a bisect
of the handle's ``ends``, and logical ranges become *linear runs*
(physically adjacent extents merged) ready for the disk system.  It
holds no copy of the allocation, so there is nothing to keep in sync.
"""

from __future__ import annotations

from bisect import bisect_right

from ..alloc.base import AllocFile
from ..errors import FileSystemError


class ExtentMap:
    """Offset lookup over an :class:`AllocFile`'s extents and ends.

    Lookups remember the extent they last landed in (``_cursor``): the
    workloads overwhelmingly read and write sequentially or repeatedly
    within one extent, so the common locate is one or two comparisons
    against the cached extent's bounds instead of a fresh bisect.  The
    cursor is pure cache — it never changes what any query returns.
    """

    __slots__ = ("_handle", "_cursor")

    def __init__(self, handle: AllocFile) -> None:
        self._handle = handle
        self._cursor = 0

    def runs(self, unit_offset: int, n_units: int) -> list[tuple[int, int]]:
        """Linear disk runs covering a logical range, adjacency-merged.

        Returns ``(linear start unit, length)`` pairs.  Contiguously
        allocated extents merge into one run — this is where contiguous
        allocation turns into fewer, larger disk transfers.
        """
        if n_units <= 0:
            raise FileSystemError(f"non-positive range: {n_units}")
        handle = self._handle
        cumulative = handle.ends
        total = cumulative[-1] if cumulative else 0
        if unit_offset < 0 or unit_offset + n_units > total:
            raise FileSystemError(
                f"range [{unit_offset}, {unit_offset + n_units}) outside "
                f"mapped {total} units"
            )
        extents = handle.extents
        # Locate the first unit: the cursor's extent, then its successor
        # (the sequential advance), before falling back to a full bisect.
        # The range check above already established
        # ``0 <= unit_offset < total`` (n_units is positive).  The file
        # may have shrunk since the cursor was set, so bound it first.
        index = self._cursor
        if index >= len(cumulative):
            index = 0
        lower = cumulative[index - 1] if index else 0
        within = -1
        if lower <= unit_offset:
            if unit_offset < cumulative[index]:
                within = unit_offset - lower
            else:
                nxt = index + 1
                if nxt < len(cumulative) and unit_offset < cumulative[nxt]:
                    within = unit_offset - cumulative[index]
                    index = nxt
                    self._cursor = nxt
        if within < 0:
            index = bisect_right(cumulative, unit_offset)
            self._cursor = index
            previous_end = cumulative[index - 1] if index else 0
            within = unit_offset - previous_end
        extent = extents[index]
        available = extent.length - within
        if available >= n_units:
            # Whole range inside one extent — the overwhelmingly common
            # case once allocation is even mildly contiguous.
            return [(extent.start + within, n_units)]
        runs: list[tuple[int, int]] = [(extent.start + within, available)]
        remaining = n_units - available
        while remaining > 0:
            index += 1
            extent = extents[index]
            take = extent.length if extent.length < remaining else remaining
            start = extent.start
            last = runs[-1]
            if last[0] + last[1] == start:
                runs[-1] = (last[0], last[1] + take)
            else:
                runs.append((start, take))
            remaining -= take
        return runs

"""Coalescing free-extent map for the extent-based allocator.

The extent policy views the disk as a linear address space where "an extent
may begin at any address" and "when an extent is freed, it is coalesced
with its adjoining extents if they are free".  :class:`FreeExtentMap` keeps
the free space as a set of disjoint, automatically coalesced intervals and
answers first-fit (lowest adequate address) and best-fit (smallest adequate
length) queries.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import SimulationError
from .sortedlist import SortedAddresses, SortedPairs


class FreeExtentMap:
    """Disjoint free intervals over ``[0, capacity)`` with coalescing.

    Internally: a sorted list of interval start addresses, a dict mapping
    start -> length, and a ``(length, start)`` size index for best-fit.
    All three are updated together; a checker method validates the
    invariants for the test suite.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self._starts = SortedAddresses([0])
        self._lengths: dict[int, int] = {0: capacity}
        self._by_size = SortedPairs()
        self._by_size.add(capacity, 0)
        self._free_total = capacity

    # -- queries ------------------------------------------------------------

    @property
    def free_units(self) -> int:
        """Total free space across all intervals."""
        return self._free_total

    def intervals(self) -> Iterator[tuple[int, int]]:
        """All free ``(start, length)`` intervals in address order."""
        for start in self._starts:
            yield start, self._lengths[start]

    # -- allocation ----------------------------------------------------------

    def take_first_fit(self, length: int, count: int) -> list[int] | None:
        """Allocate ``count`` runs of ``length`` units, each from the
        lowest-addressed interval that fits it.

        Returns the starts in allocation order, or None, with the map
        unchanged, when some run finds no interval big enough.  The
        tendency of first-fit "to allocate blocks toward the beginning of
        the disk system" that the paper credits for its slight clustering
        falls straight out of this address-ordered scan.

        One address scan serves all ``count`` runs and gives the same
        answers as ``count`` single takes: a take carves the front of the
        first adequate interval, so every interval below it is still too
        small for the next run, and the remainder is the next candidate.
        The first adequate interval therefore gives ``min(count, len //
        length)`` runs in one carve, and the scan goes on past what is
        left of it.  A shortage releases the runs taken; the map is
        always coalesced, so that restores the exact earlier state.
        """
        if length <= 0:
            raise SimulationError(f"allocation length must be positive: {length}")
        if count <= 0:
            raise SimulationError(f"allocation count must be positive: {count}")
        lengths = self._lengths
        taken: list[int] = []
        remaining = count
        members = iter(self._starts)
        while True:
            for start in members:
                if lengths[start] >= length:
                    break
            else:
                for start in taken:
                    self.release(start, length)
                return None
            runs = lengths[start] // length
            if runs > remaining:
                runs = remaining
            units = runs * length
            self._carve(start, start, units)
            if runs == 1:
                taken.append(start)
            else:
                taken.extend(range(start, start + units, length))
            remaining -= runs
            if not remaining:
                return taken
            # Resume past what is left of this interval (too small for
            # another run) or, if nothing is, past where it ended.
            members = self._starts.iter_above(start + units)

    def take_best_fit(self, length: int) -> int | None:
        """Allocate from the smallest adequate interval (lowest address ties)."""
        if length <= 0:
            raise SimulationError(f"allocation length must be positive: {length}")
        found = self._by_size.first_with_primary_at_least(length)
        if found is None:
            return None
        interval_length, start = found
        assert interval_length >= length
        self._carve(start, start, length)
        return start

    def take_up_to_from(self, position: int, max_length: int) -> tuple[int, int] | None:
        """Take up to ``max_length`` units from the first free space at or
        after ``position``, wrapping to address zero when nothing lies
        beyond it.

        Used by log-structured allocation: the log head takes whatever
        contiguous run comes next, threading through the holes.  Returns
        ``(start, taken)`` or None when nothing at all is free.
        """
        if max_length <= 0:
            raise SimulationError(f"allocation length must be positive: {max_length}")
        found = self._usable_at_or_after(position)
        if found is None:
            found = self._usable_at_or_after(0)
        if found is None:
            return None
        interval_start, usable_start, usable_length = found
        take = min(usable_length, max_length)
        self._carve(interval_start, usable_start, take)
        return usable_start, take

    def _usable_at_or_after(
        self, position: int
    ) -> tuple[int, int, int] | None:
        """First free space at or after ``position``.

        Returns ``(interval start, usable start, usable length)``; when
        ``position`` falls inside a free interval, the usable part begins
        at ``position``.
        """
        containing = self._starts.predecessor(position + 1)
        if containing is not None:
            end = containing + self._lengths[containing]
            if position < end:
                return containing, position, end - position
        following = self._starts.successor(position)
        if following is None:
            return None
        return following, following, self._lengths[following]

    # -- release ---------------------------------------------------------------

    def release(self, start: int, length: int) -> None:
        """Return ``[start, start+length)`` to the free map, coalescing.

        Raises:
            SimulationError: when the range overlaps existing free space or
                falls outside the address space (double free / corruption).
        """
        if length <= 0:
            raise SimulationError(f"release length must be positive: {length}")
        if start < 0 or start + length > self.capacity:
            raise SimulationError(
                f"release [{start}, {start + length}) outside capacity {self.capacity}"
            )
        predecessor = self._starts.predecessor(start + 1)
        if predecessor is not None:
            pred_end = predecessor + self._lengths[predecessor]
            if pred_end > start:
                raise SimulationError(
                    f"double free: [{start}, {start + length}) overlaps "
                    f"free interval starting at {predecessor}"
                )
        successor = self._starts.successor(start)
        if successor is not None and successor < start + length:
            raise SimulationError(
                f"double free: [{start}, {start + length}) overlaps "
                f"free interval starting at {successor}"
            )

        new_start, new_length = start, length
        # Coalesce with the predecessor when it ends exactly at our start.
        if predecessor is not None and predecessor + self._lengths[predecessor] == start:
            new_start = predecessor
            new_length += self._lengths[predecessor]
            self._remove_interval(predecessor)
        # Coalesce with the successor when we end exactly at its start.
        if successor is not None and start + length == successor:
            new_length += self._lengths[successor]
            self._remove_interval(successor)
        self._add_interval(new_start, new_length)
        self._free_total += length

    # -- internals ----------------------------------------------------------

    def _carve(self, interval_start: int, take_start: int, take_length: int) -> None:
        """Remove ``[take_start, take_start+take_length)`` from one interval.

        The pieces left over keep the interval's address rank, so the
        address list is written in place, never shifted: a back piece
        keeps the interval's start, and a front carve (every first-fit
        and best-fit take) moves the start up past the taken run.  Only
        the size index has to move its pair, and only when the shrunk
        length changes its rank.
        """
        interval_length = self._lengths.pop(interval_start)
        take_end = take_start + take_length
        right = interval_start + interval_length - take_end
        old = (interval_length, interval_start)
        if take_start > interval_start:
            left = take_start - interval_start
            self._lengths[interval_start] = left
            self._by_size.move(old, (left, interval_start))
            if right > 0:
                self._add_interval(take_end, right)
        elif right > 0:
            self._starts.replace(interval_start, take_end)
            self._lengths[take_end] = right
            self._by_size.move(old, (right, take_end))
        else:
            self._starts.remove(interval_start)
            self._by_size.remove(interval_length, interval_start)
        self._free_total -= take_length

    def _add_interval(self, start: int, length: int) -> None:
        self._starts.add(start)
        self._lengths[start] = length
        self._by_size.add(length, start)

    def _remove_interval(self, start: int) -> None:
        length = self._lengths.pop(start)
        self._starts.remove(start)
        self._by_size.remove(length, start)

    # -- validation -----------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify internal consistency (used by tests, not hot paths)."""
        previous_end = -1
        total = 0
        sizes_seen = []
        for start, length in self.intervals():
            if length <= 0:
                raise SimulationError(f"empty interval at {start}")
            if start <= previous_end:
                raise SimulationError(
                    f"intervals overlap or failed to coalesce near {start}"
                )
            previous_end = start + length
            total += length
            sizes_seen.append((length, start))
        if previous_end > self.capacity:
            raise SimulationError("interval extends past capacity")
        if total != self._free_total:
            raise SimulationError(
                f"free total {self._free_total} != interval sum {total}"
            )
        if sorted(sizes_seen) != list(self._by_size):
            raise SimulationError("size index out of sync with intervals")

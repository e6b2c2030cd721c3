"""Free-space management for both buddy policies (§4.1 and §4.2).

"Free space is managed both by bit maps and free lists.  A bit map is used
to record the state (free or used) of every maximum sized block in the
system.  For smaller blocks, a circular doubly linked list of free blocks
is maintained in sorted order. ... Maximum sized blocks which are
completely unused require one bit.  Smaller blocks are represented only if
one of their buddies is in use."

This is the hot-path implementation.  :class:`LadderFreeStore` owns the
maximum-size bitmap (one Python int, bit ``i`` set when maximum-size
block ``i`` is free) plus one plain sorted ``list[int]`` of free
addresses per smaller ladder size: bisection finds a block, and whole
sibling runs are spliced in and out as one C-level slice operation (the
batched form of the paper's split and coalesce walks).  It optionally
maintains per-region, per-size free-block counts so the restricted
policy's region ring scans skip empty regions in O(1) instead of
bisecting into every region.

The restricted buddy policy runs it over its configured ladder with
regions.  Koch's binary buddy policy (:mod:`repro.alloc.buddy`) runs it
over the ladder 1, 2, 4, …, 2**k with no regions: a binary buddy system
is a restricted one whose sizes are every power of two.

Allocation goes through two find-and-take methods and nothing else:
:meth:`~LadderFreeStore.take_run_in_region` takes a run of exact-size
blocks, and :meth:`~LadderFreeStore.take_split_in_region` probes each
larger rung through it and splits the block it takes.

Every allocation decision is bit-identical to two retained oracles: the
pre-rewrite circular DLL + dict + bisect-index triple
(``tests/oracles/reference.py``) and Koch's per-order free lists with
their XOR coalescing walk (``tests/oracles/buddy.py``).  The
differential property tests in ``tests/alloc/test_differential.py``
drive the store and each oracle through identical operation sequences
and require identical answers and snapshots at every step.
"""

from __future__ import annotations

from bisect import bisect_left

from ..errors import SimulationError


class LadderFreeStore:
    """Aligned multi-size free space over ``[0, capacity)``.

    Args:
        capacity_units: address-space size.
        sizes: the block-size ladder, ascending; each size must divide the
            next ("each block size is an integral multiple ... of all the
            smaller block sizes") and blocks of size N start at multiples
            of N.
        region_units: when given, the store additionally maintains
            per-region, per-size counts of free blocks (a block belongs
            to region ``address // region_units``), serving the
            restricted policy's "which region has a block of this size"
            ring scans without probing each region's structures.

    The store knows nothing about files or grow policies — it hands out
    "a free block of size s near address a" and keeps the
    buddy-coalescing invariant: a block appears on a free list only if
    its enclosing next-size block is not entirely free.

    A ``capacity_units`` that is not a multiple of the largest ladder
    size leaves a *partial tail* past the last maximum-size block.  The
    bitmap covers only whole maximum-size blocks (``capacity // max``
    slots); the tail is represented exactly, as the largest aligned
    ladder blocks that fit, seeded onto the free lists at construction
    (any residue smaller than the smallest block is unaddressable and
    excluded from ``free_units``).  Tail blocks can never coalesce into
    a phantom maximum-size block because the coalescing walk refuses any
    sibling group extending past ``capacity_units``.
    """

    def __init__(
        self,
        capacity_units: int,
        sizes: tuple[int, ...],
        region_units: int | None = None,
    ) -> None:
        if not sizes or any(s <= 0 for s in sizes):
            raise SimulationError(f"bad ladder {sizes}")
        if list(sizes) != sorted(set(sizes)):
            raise SimulationError(f"ladder must be ascending/unique: {sizes}")
        for small, large in zip(sizes, sizes[1:]):
            if large % small:
                raise SimulationError(f"{small} does not divide {large}")
        if region_units is not None and region_units <= 0:
            raise SimulationError(f"region_units must be positive: {region_units}")
        self.capacity_units = capacity_units
        self.sizes = tuple(sizes)
        self.max_size = sizes[-1]
        self._size_index = {size: i for i, size in enumerate(sizes)}
        self._max_slots = capacity_units // self.max_size
        self._free_slots = self._max_slots  # set bits in the bitmap
        self._bits = (1 << self._max_slots) - 1  # bit i set == max block i free
        # One sorted address list per smaller size.  Members are multiples
        # of the list's size, so a sibling group is one contiguous slice.
        self._lists: dict[int, list[int]] = {s: [] for s in sizes[:-1]}
        self._free_units = self._max_slots * self.max_size
        # Region summaries: _region_counts[size_index][region] counts free
        # blocks of that size whose start address falls in the region.
        # Maintained only when they can ever discriminate (>1 region).
        self.region_units = region_units
        if region_units is not None:
            self.n_regions = -(-capacity_units // region_units)
        else:
            self.n_regions = 1
        if self.n_regions > 1:
            self._region_counts: list[list[int]] | None = [
                [0] * self.n_regions for _ in self.sizes
            ]
            counts = self._region_counts[-1]
            for slot in range(self._max_slots):
                counts[(slot * self.max_size) // region_units] += 1
        else:
            self._region_counts = None
        self._seed_tail()

    def _seed_tail(self) -> None:
        """Cover the partial tail past the last max-size block."""
        position = self._max_slots * self.max_size
        remaining = self.capacity_units - position
        for size in reversed(self.sizes[:-1]):
            while remaining >= size and position % size == 0:
                self._lists[size].append(position)  # ascending: no bisect
                self._count_delta(self._size_index[size], position, 1)
                position += size
                remaining -= size
                self._free_units += size
        # Any residue smaller than the smallest block is unaddressable.

    # -- region summaries ---------------------------------------------------

    def _count_delta(self, size_index: int, address: int, delta: int) -> None:
        counts = self._region_counts
        if counts is not None:
            counts[size_index][address // self.region_units] += delta

    def region_has_exact(self, size: int, region: int) -> bool:
        """True when the region holds a free block of exactly ``size``.

        With region summaries enabled this is one array read; without
        them there is a single region and the global structures answer.
        """
        counts = self._region_counts
        if counts is not None:
            return counts[self._size_index[size]][region] > 0
        if size == self.max_size:
            return self._free_slots > 0
        return bool(self._lists[size])

    def region_has_splittable(self, size: int, region: int) -> bool:
        """True when the region holds any free block *larger* than ``size``."""
        counts = self._region_counts
        start_index = self._size_index[size] + 1
        if counts is not None:
            return any(
                counts[index][region] for index in range(start_index, len(self.sizes))
            )
        for larger in self.sizes[start_index:]:
            if self.region_has_exact(larger, region):
                return True
        return False

    # -- queries ------------------------------------------------------------

    @property
    def free_units(self) -> int:
        """Units on free lists + free max blocks."""
        return self._free_units

    def _free_max_in(
        self, low: int, high: int, prefer: int | None
    ) -> int | None:
        """First free maximum-size block in ``[low, high)`` by the take
        order (``prefer``, then at or after it, then lowest), or None."""
        max_size = self.max_size
        low_slot = -(-low // max_size)
        high_slot = min(high // max_size, self._max_slots)
        if prefer is not None and prefer % max_size == 0:
            slot = prefer // max_size
            if low_slot <= slot < high_slot and (self._bits >> slot) & 1:
                return prefer
            found = self._first_set_in_range(max(slot, low_slot), high_slot)
            if found is not None:
                return found * max_size
        found = self._first_set_in_range(low_slot, high_slot)
        if found is None:
            return None
        return found * max_size

    def _first_set_in_range(self, low_slot: int, high_slot: int) -> int | None:
        """Lowest free bitmap slot in ``[low_slot, high_slot)``, or None.

        One big-int shift + isolate-lowest-bit, regardless of width.
        """
        if low_slot >= high_slot:
            return None
        if low_slot < 0:
            low_slot = 0
        shifted = self._bits >> low_slot
        if shifted == 0:
            return None
        slot = low_slot + (shifted & -shifted).bit_length() - 1
        return slot if slot < high_slot else None

    # -- mutation ------------------------------------------------------------

    def take_run_in_region(
        self,
        size: int,
        low: int,
        high: int,
        prefer: int | None,
        max_blocks: int,
    ) -> tuple[int, int] | None:
        """Take a run of up to ``max_blocks`` consecutive ``size`` blocks.

        The store's one exact-size take.  The first block is the
        ``prefer`` address when it is free and in ``[low, high)``
        (contiguity with the file's previous block), else the first free
        block at or after ``prefer``, else the first in range.  The run
        then extends over immediately adjacent free blocks while they
        start below ``high``.  Returns ``(start, count)``, or None when
        the range holds no block of exactly ``size``.

        This is the sequential-contiguity streak, batched: block by
        block, the caller's next preferred address would be exactly the
        previous block's end, so each adjacent free block taken here is
        the block a one-block take would have chosen next — at one
        bisect and one list splice (or one big-int mask) for the whole
        run instead of a bisect and an O(n) element delete per block.
        """
        if size == self.max_size:
            start = self._free_max_in(low, high, prefer)
            if start is None:
                return None
            # Clear the whole run of consecutive set bits with one mask.
            slot = start // size
            inverted = ~(self._bits >> slot)
            run = (inverted & -inverted).bit_length() - 1
            taken = min(max_blocks, min(high // size, self._max_slots) - slot, run)
            self._bits &= ~(((1 << taken) - 1) << slot)
            self._free_slots -= taken
        else:
            items = self._lists[size]
            if not items:
                return None
            key = low if prefer is None or prefer < low else prefer
            index = bisect_left(items, key)
            if index == len(items) or items[index] >= high:
                if key == low:
                    return None
                index = bisect_left(items, low)
                if index == len(items) or items[index] >= high:
                    return None
            start = items[index]
            if max_blocks == 1:
                # A one-block take (descriptors, split probes, ring steps)
                # skips the run scan and its slice delete.
                del items[index]
                taken = 1
            else:
                end = index + 1
                stop = min(index + max_blocks, len(items))
                expected = start + size
                while end < stop and expected < high and items[end] == expected:
                    end += 1
                    expected += size
                del items[index:end]
                taken = end - index
        counts = self._region_counts
        if counts is not None:
            region_units = self.region_units
            row = counts[self._size_index[size]]
            first = start // region_units
            last = (start + (taken - 1) * size) // region_units
            if first == last:
                row[first] -= taken
            else:
                for address in range(start, start + taken * size, size):
                    row[address // region_units] -= 1
        self._free_units -= taken * size
        return start, taken

    def take_split_in_region(
        self, size: int, low: int, high: int, prefer: int | None = None
    ) -> int | None:
        """Split the smallest adequate larger block in range, take ``size``.

        Each larger rung, smallest first, is probed by a one-block
        :meth:`take_run_in_region`, so the split favours the block at
        ``prefer`` (the paper's "next sequential block").  The first hit
        is split: its leading ``size`` piece is returned and the unused
        siblings are spliced onto the smaller lists, one splice per rung
        (no coalescing needed: their siblings are what was just taken).
        Rungs with no free block at all are skipped without a probe.
        Returns the allocated address, or None when no larger block
        exists in range.
        """
        sizes = self.sizes
        lists = self._lists
        last = len(sizes) - 1
        start_index = self._size_index[size] + 1
        for larger_index in range(start_index, last + 1):
            larger = sizes[larger_index]
            # An empty rung holds no block in any window: skip its probe.
            if not (lists[larger] if larger_index < last else self._free_slots):
                continue
            hit = self.take_run_in_region(larger, low, high, prefer, 1)
            if hit is None:
                continue
            address = hit[0]
            counts = self._region_counts
            for level in range(larger_index, start_index - 1, -1):
                child = sizes[level - 1]
                run_start = address + child
                span_end = address + sizes[level]
                items = lists[child]
                probe = bisect_left(items, run_start)
                if probe < len(items) and items[probe] < span_end:
                    raise SimulationError(f"block {items[probe]} already free")
                if span_end - run_start == child:
                    # A lone sibling: one insert, where building a
                    # one-member range to splice costs several times more.
                    items.insert(probe, run_start)
                else:
                    items[probe:probe] = range(run_start, span_end, child)
                if counts is not None:
                    region_units = self.region_units
                    first = run_start // region_units
                    row = counts[level - 1]
                    if first == (span_end - child) // region_units:
                        row[first] += sizes[level] // child - 1
                    else:
                        for member in range(run_start, span_end, child):
                            row[member // region_units] += 1
            # The take charged the whole larger block; all but ``size``
            # of it went back onto the smaller lists.
            self._free_units += larger - size
            return address
        return None

    def release(self, address: int, size: int) -> None:
        """Free a block, coalescing full sibling groups up the ladder.

        The coalescing walk visits each rung once, and the single bisect
        that locates ``address`` in the rung's free list does triple
        duty: it answers the double-free check for the rung (is
        ``address`` itself a member?), decides group completeness by
        arithmetic on the insert position, and is reused as the insert
        position when the walk stops — so the common release costs one
        bisect, not a full pre-scan over the ladder plus a separate
        insert search.

        The one containment the walk cannot see is an *empty* span whose
        whole group lies inside a free larger block; only that case
        falls through to the upward scan in :meth:`_check_covering_free`.
        This detects exactly the double frees the pre-scan did: a free
        covering block at any larger size leaves zero members at every
        rung below it, so the walk breaks on its first empty span (before
        mutating anything) and the upward scan finds that covering.
        """
        if address % size:
            raise SimulationError(f"misaligned release: {address} % {size}")
        sizes = self.sizes
        max_size = self.max_size
        counts = self._region_counts
        if size == max_size:
            slot = address // max_size
            if not 0 <= slot < self._max_slots:
                raise SimulationError(
                    f"bit {slot} outside bitmap of {self._max_slots}"
                )
            mask = 1 << slot
            if self._bits & mask:
                raise SimulationError(
                    f"double free: [{address}, {address + size}) lies in "
                    f"free maximum block at {address}"
                )
            self._bits |= mask
            self._free_slots += 1
            if counts is not None:
                counts[-1][address // self.region_units] += 1
            self._free_units += size
            return
        released_units = size  # net change: coalesced siblings were already free
        capacity = self.capacity_units
        lists = self._lists
        index = self._size_index[size]
        insert_at = 0
        while size != max_size:
            parent = sizes[index + 1]
            group_start = address - (address % parent)
            group_end = group_start + parent
            # One bisect per rung.  Every list member is size-aligned and
            # distinct, so whether the sibling group is complete follows
            # arithmetically from the insert position: below it there
            # must be exactly k = (address - group_start)/size entries
            # starting at group_start, above it exactly m entries ending
            # at group_end - size — pigeonhole then forces them to be
            # precisely the k + m = ratio - 1 siblings.
            items = lists[size]
            n_items = len(items)
            insert_at = bisect_left(items, address)
            if insert_at < n_items and items[insert_at] == address:
                raise SimulationError(
                    f"double free: [{address}, {address + size}) lies in "
                    f"free {size}-block at {address}"
                )
            if group_end > capacity:
                break  # tail group is incomplete; cannot coalesce
            k = (address - group_start) // size
            m = (group_end - address) // size - 1
            lo = insert_at - k
            hi = insert_at + m
            if (
                lo < 0
                or hi > n_items
                or (k and items[lo] != group_start)
                or (m and items[hi - 1] != group_end - size)
            ):
                # Incomplete group: no coalesce.  An *empty* span may
                # mean the whole group lies inside a free larger block —
                # the walk cannot see that, so finish the scan upward.
                if (insert_at == 0 or items[insert_at - 1] < group_start) and (
                    insert_at == n_items or items[insert_at] >= group_end
                ):
                    self._check_covering_free(address, size, index + 1)
                break
            del items[lo:hi]
            if counts is not None:
                # Count-run update, inlined: the whole group's counts go
                # down, then the freed block (never counted) nets back.
                region_units = self.region_units
                first = group_start // region_units
                row = counts[index]
                if first == (group_end - size) // region_units:
                    row[first] -= parent // size
                else:
                    for member in range(group_start, group_end, size):
                        row[member // region_units] -= 1
                row[address // region_units] += 1
            address = group_start
            size = parent
            index += 1
        if size == max_size:
            slot = address // max_size
            mask = 1 << slot
            if self._bits & mask:
                raise SimulationError(f"bit {slot} already set")
            self._bits |= mask
            self._free_slots += 1
            if counts is not None:
                counts[-1][address // self.region_units] += 1
        else:
            lists[size].insert(insert_at, address)
            if counts is not None:
                counts[index][address // self.region_units] += 1
        self._free_units += released_units

    def _check_covering_free(
        self, address: int, size: int, start_index: int
    ) -> None:
        """Raise if a free block at any ladder size >= ``start_index``
        contains ``[address, address + size)`` (double free).

        The suffix of the old full pre-scan: :meth:`release` calls this
        only when a rung's sibling span is empty, the one case where the
        coalescing walk itself cannot rule out a free covering block.

        The scan stops at the first rung whose list holds a free block in
        the covering block's sibling group: free blocks are disjoint, and
        a free block at a larger size would contain that whole group, so
        none can exist.  Detection is unchanged; a release whose buddy is
        busy no longer bisects every rung up to the bitmap.
        """
        sizes = self.sizes
        max_size = self.max_size
        for index in range(start_index, len(sizes)):
            candidate = sizes[index]
            covering = address - (address % candidate)
            if candidate == max_size:
                slot = covering // max_size
                if slot < self._max_slots and (self._bits >> slot) & 1:
                    raise SimulationError(
                        f"double free: [{address}, {address + size}) lies in "
                        f"free maximum block at {covering}"
                    )
                return
            items = self._lists[candidate]
            probe = bisect_left(items, covering)
            if probe < len(items) and items[probe] == covering:
                raise SimulationError(
                    f"double free: [{address}, {address + size}) lies in "
                    f"free {candidate}-block at {covering}"
                )
            parent = sizes[index + 1]
            group_start = covering - (covering % parent)
            if (probe and items[probe - 1] >= group_start) or (
                probe < len(items) and items[probe] < group_start + parent
            ):
                return  # a free sibling: nothing larger covers the group

    # -- validation -----------------------------------------------------------

    def _set_slots(self) -> list[int]:
        """All set (free) bitmap slot numbers, via the big-int fast path."""
        result = []
        bits = self._bits
        position = 0
        while bits:
            lowest = bits & -bits
            index = position + lowest.bit_length() - 1
            result.append(index)
            bits >>= index - position + 1
            position = index + 1
        return result

    def snapshot(self) -> dict:
        """JSON-safe rendering of the free structures (fingerprint hook).

        Pure function of store state: the bitmap renders as the sorted
        slot numbers still set, each free list as its sorted addresses.
        """
        return {
            "free_units": self._free_units,
            "max_slots": self._set_slots(),
            "lists": {
                str(size): list(self._lists[size])
                for size in self.sizes[:-1]
                if self._lists[size]
            },
        }

    def check_invariants(self) -> None:
        """Verify alignment, accounting, coalescing, and region summaries."""
        if self._free_slots != bin(self._bits).count("1"):
            raise SimulationError("bitmap set count out of sync")
        total = self._free_slots * self.max_size
        for size, free_list in self._lists.items():
            if any(b <= a for a, b in zip(free_list, free_list[1:])):
                raise SimulationError(f"{size}-block free list out of order")
            for address in free_list:
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
            by_group: dict[int, int] = {}
            for address in self._lists[size]:
                group = address - (address % parent)
                by_group[group] = by_group.get(group, 0) + 1
            ratio = parent // size
            for group, count in by_group.items():
                if count >= ratio and group + parent <= self.capacity_units:
                    raise SimulationError(
                        f"uncoalesced sibling group at {group} size {size}"
                    )
        # Region summaries must agree with a from-scratch recount.
        if self._region_counts is not None:
            recount = [[0] * self.n_regions for _ in self.sizes]
            for slot in self._set_slots():
                recount[-1][(slot * self.max_size) // self.region_units] += 1
            for size, free_list in self._lists.items():
                row = recount[self._size_index[size]]
                for address in free_list:
                    row[address // self.region_units] += 1
            if recount != self._region_counts:
                raise SimulationError("region summaries out of sync")

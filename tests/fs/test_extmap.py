"""Unit tests for the logical-to-physical extent map."""

from itertools import accumulate

import pytest

from repro.alloc.base import AllocFile, Extent
from repro.alloc.buddy import BinaryBuddyAllocator
from repro.errors import DiskFullError, FileSystemError
from repro.fs.extmap import ExtentMap


def make_handle(extents):
    handle = AllocFile(file_id=1)
    handle.extents = [Extent(s, l) for s, l in extents]
    handle.ends = list(accumulate(length for _, length in extents))
    return handle


class TestLocate:
    def test_locate_within_extents(self):
        handle = make_handle([(100, 10), (500, 20)])
        emap = ExtentMap(handle)
        # One-unit runs locate a logical unit: extent start + offset within.
        assert emap.runs(0, 1) == [(100, 1)]
        assert emap.runs(9, 1) == [(109, 1)]
        assert emap.runs(10, 1) == [(500, 1)]
        assert emap.runs(29, 1) == [(519, 1)]

    def test_locate_out_of_range_raises(self):
        emap = ExtentMap(make_handle([(0, 10)]))
        with pytest.raises(FileSystemError):
            emap.runs(10, 1)
        with pytest.raises(FileSystemError):
            emap.runs(-1, 1)

    def test_total_units(self):
        assert make_handle([(0, 3), (9, 7)]).allocated_units == 10
        assert make_handle([]).allocated_units == 0


class TestRuns:
    def test_single_extent_run(self):
        emap = ExtentMap(make_handle([(100, 50)]))
        assert emap.runs(5, 10) == [(105, 10)]

    def test_adjacent_extents_merge(self):
        emap = ExtentMap(make_handle([(100, 10), (110, 10), (120, 10)]))
        assert emap.runs(0, 30) == [(100, 30)]

    def test_discontiguous_extents_split(self):
        emap = ExtentMap(make_handle([(100, 10), (500, 10)]))
        assert emap.runs(5, 10) == [(105, 5), (500, 5)]

    def test_range_past_end_raises(self):
        emap = ExtentMap(make_handle([(0, 10)]))
        with pytest.raises(FileSystemError):
            emap.runs(5, 6)

    def test_non_positive_range_raises(self):
        emap = ExtentMap(make_handle([(0, 10)]))
        with pytest.raises(FileSystemError):
            emap.runs(0, 0)

    def test_range_ending_exactly_on_extent_boundary(self):
        emap = ExtentMap(make_handle([(100, 10), (500, 10)]))
        # Ends on the first extent's last unit: no spill into the second.
        assert emap.runs(0, 10) == [(100, 10)]
        assert emap.runs(4, 6) == [(104, 6)]
        # Ends exactly at end-of-file, starting mid-extent.
        assert emap.runs(15, 5) == [(505, 5)]
        # Covers everything, ending exactly at end-of-file.
        assert emap.runs(0, 20) == [(100, 10), (500, 10)]

    def test_whole_file_merges_to_one_run(self):
        emap = ExtentMap(make_handle([(64, 8), (72, 8), (80, 16), (96, 4)]))
        assert emap.runs(0, 36) == [(64, 36)]

    def test_single_unit_reads(self):
        emap = ExtentMap(make_handle([(100, 2), (500, 2)]))
        assert emap.runs(0, 1) == [(100, 1)]
        assert emap.runs(1, 1) == [(101, 1)]
        # First unit past the extent boundary.
        assert emap.runs(2, 1) == [(500, 1)]
        assert emap.runs(3, 1) == [(501, 1)]

    def test_single_unit_reads_after_sequential_advance(self):
        # Walk forward one unit at a time so the cursor fast path (hit,
        # successor advance, bisect fallback) all get exercised, then jump
        # backwards to force the bisect.
        emap = ExtentMap(make_handle([(10, 3), (20, 3), (40, 3)]))
        expected = [10, 11, 12, 20, 21, 22, 40, 41, 42]
        for offset, unit in enumerate(expected):
            assert emap.runs(offset, 1) == [(unit, 1)]
        assert emap.runs(0, 1) == [(10, 1)]
        assert emap.runs(8, 1) == [(42, 1)]

    def test_negative_offset_raises(self):
        emap = ExtentMap(make_handle([(0, 10)]))
        with pytest.raises(FileSystemError):
            emap.runs(-1, 2)

    def test_empty_map_raises(self):
        emap = ExtentMap(make_handle([]))
        with pytest.raises(FileSystemError):
            emap.runs(0, 1)


class TestIndexMaintenance:
    """The allocator keeps each handle's cumulative ends in step with its
    extents, so a map built once stays right through growth and shrink."""

    def test_extend_appends_ends(self):
        allocator = BinaryBuddyAllocator(1024)
        handle = allocator.create()
        emap = ExtentMap(handle)
        allocator.extend(handle, 3)  # one 4-unit block
        allocator.extend(handle, 1)  # doubling: another 4
        assert [e.length for e in handle.extents] == [4, 4]
        assert handle.ends == [4, 8]
        assert handle.allocated_units == 8
        second = handle.extents[1]
        assert emap.runs(6, 1) == [(second.start + 2, 1)]

    def test_failed_extend_leaves_the_index_alone(self):
        allocator = BinaryBuddyAllocator(16)
        handle = allocator.create()
        allocator.extend(handle, 4)
        with pytest.raises(DiskFullError):
            allocator.extend(handle, 64)
        assert handle.ends == [4]

    def test_truncate_drops_ends(self):
        allocator = BinaryBuddyAllocator(1024)
        handle = allocator.create()
        emap = ExtentMap(handle)
        for units in (4, 4, 8, 16):
            allocator.extend(handle, units)
        assert handle.ends == [4, 8, 16, 32]
        assert emap.runs(31, 1)  # the cursor now sits on the last extent
        assert allocator.truncate(handle, 24) == 24
        assert handle.ends == [4, 8]
        first = handle.extents[0]
        assert emap.runs(0, 1) == [(first.start, 1)]
        with pytest.raises(FileSystemError):
            emap.runs(8, 1)

    def test_delete_clears_ends(self):
        allocator = BinaryBuddyAllocator(1024)
        handle = allocator.create()
        allocator.extend(handle, 8)
        allocator.delete(handle)
        assert handle.extents == [] and handle.ends == []

    def test_reallocate_rewrites_ends_in_place(self):
        allocator = BinaryBuddyAllocator(1024)
        handle = allocator.create()
        emap = ExtentMap(handle)
        for units in (1, 1, 2, 4):
            allocator.extend(handle, units)
        ends = handle.ends
        assert allocator.reallocate({handle.file_id: 7}, max_extents=3) == 1
        assert handle.ends is ends
        assert [e.length for e in handle.extents] == [4, 2, 1]
        assert ends == [4, 6, 7]
        for extent, offset in zip(handle.extents, (0, 4, 6)):
            assert emap.runs(offset, 1) == [(extent.start, 1)]

"""Unit tests for the logical-to-physical extent map."""

import pytest

from repro.alloc.base import AllocFile, Extent
from repro.errors import FileSystemError
from repro.fs.extmap import ExtentMap


def make_handle(extents):
    handle = AllocFile(file_id=1)
    handle.extents = [Extent(s, l) for s, l in extents]
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
        assert ExtentMap(make_handle([(0, 3), (9, 7)])).total_units == 10
        assert ExtentMap(make_handle([])).total_units == 0


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


class TestSync:
    def test_sync_append(self):
        handle = make_handle([(0, 10)])
        emap = ExtentMap(handle)
        added = [Extent(50, 5)]
        handle.extents.extend(added)
        emap.sync_append(added)
        assert emap.total_units == 15
        assert emap.runs(12, 1) == [(52, 1)]

    def test_sync_append_mismatch_raises(self):
        handle = make_handle([(0, 10)])
        emap = ExtentMap(handle)
        with pytest.raises(FileSystemError):
            emap.sync_append([Extent(50, 5)])  # handle not actually grown

    def test_sync_truncate(self):
        handle = make_handle([(0, 10), (50, 5)])
        emap = ExtentMap(handle)
        handle.extents.pop()
        emap.sync_truncate()
        assert emap.total_units == 10

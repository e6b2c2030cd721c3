"""Unit + property tests for the log-structured extension allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc.logstructured import LogStructuredAllocator
from repro.errors import DiskFullError


class TestLogHead:
    def test_allocations_are_sequential(self):
        allocator = LogStructuredAllocator(10_000)
        a = allocator.create()
        allocator.extend(a, 100)
        b = allocator.create()
        allocator.extend(b, 100)
        # b's data begins exactly where a's ended (plus b's descriptor).
        assert b.extents[0].start == a.extents[0].end + 1
        assert allocator.head == b.extents[0].end

    def test_single_contiguous_extent_on_empty_log(self):
        allocator = LogStructuredAllocator(10_000)
        handle = allocator.create()
        allocator.extend(handle, 500)
        assert handle.extent_count == 1

    def test_threads_through_holes(self):
        allocator = LogStructuredAllocator(1_000)
        first = allocator.create()
        allocator.extend(first, 300)
        second = allocator.create()
        allocator.extend(second, 300)
        third = allocator.create()
        allocator.extend(third, 300)
        allocator.delete(second)  # a 301-unit hole mid-log
        # Fill the tail, then the next allocation wraps into the hole.
        fourth = allocator.create()
        allocator.extend(fourth, 300)
        assert fourth.allocated_units == 300
        allocator.check_no_overlap()
        allocator.check_free_space()

    def test_wraps_at_end_of_address_space(self):
        allocator = LogStructuredAllocator(1_000)
        a = allocator.create()
        allocator.extend(a, 600)
        allocator.delete(a)  # free the front again
        b = allocator.create()
        allocator.extend(b, 500)  # head is past 600; fits in tail
        c = allocator.create()
        allocator.extend(c, 300)  # must wrap to reuse the freed front
        assert c.extents[-1].end <= 1_000
        allocator.check_no_overlap()

    def test_disk_full_rolls_back(self):
        allocator = LogStructuredAllocator(100)
        handle = allocator.create()
        free_before = allocator.free_units
        with pytest.raises(DiskFullError):
            allocator.extend(handle, 1_000)
        assert allocator.free_units == free_before
        allocator.check_free_space()

    def test_adjacent_pieces_merge(self):
        allocator = LogStructuredAllocator(1_000)
        handle = allocator.create()
        allocator.extend(handle, 200)
        allocator.extend(handle, 200)  # continues at the head: same run
        assert handle.extent_count == 1 or (
            handle.extents[0].end == handle.extents[1].start
        )


class TestChurnBehaviour:
    def test_full_cycle_restores_space(self):
        allocator = LogStructuredAllocator(5_000)
        handles = []
        for index in range(10):
            handle = allocator.create()
            allocator.extend(handle, 50 + index * 17)
            handles.append(handle)
        for handle in handles:
            allocator.delete(handle)
        assert allocator.free_units == 5_000
        assert len(allocator.snapshot_free_state()["holes"]) == 1

    def test_writes_stay_contiguous_under_churn(self):
        """The LFS selling point: new files are contiguous even after
        delete churn has riddled the disk with holes."""
        allocator = LogStructuredAllocator(50_000)
        live = []
        for round_number in range(30):
            handle = allocator.create()
            allocator.extend(handle, 100)
            live.append(handle)
            if round_number % 3 == 2:
                allocator.delete(live.pop(0))
        fresh = allocator.create()
        allocator.extend(fresh, 100)
        assert fresh.extent_count <= 2  # at most one hole boundary


@given(
    script=st.lists(
        st.tuples(st.sampled_from(["grow", "delete"]),
                  st.integers(min_value=1, max_value=200)),
        max_size=50,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_log_invariants(script):
    allocator = LogStructuredAllocator(8_000)
    live = []
    for action, amount in script:
        try:
            if action == "grow":
                handle = allocator.create()
                allocator.extend(handle, amount)
                live.append(handle)
            elif live:
                allocator.delete(live.pop(amount % len(live)))
        except DiskFullError:
            pass
        allocator.check_no_overlap()
        allocator.check_free_space()
        assert 0 <= allocator.head < 8_000
    for handle in live:
        allocator.delete(handle)
    assert allocator.free_units == 8_000

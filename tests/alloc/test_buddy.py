"""Unit + property tests for Koch's binary buddy allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc.buddy import BinaryBuddyAllocator
from repro.errors import DiskFullError
from repro.sim.rng import RandomStream


class TestDoubling:
    def test_first_extent_rounds_to_power_of_two(self):
        allocator = BinaryBuddyAllocator(1 << 16)
        handle = allocator.create()
        added = allocator.extend(handle, 5)
        assert [extent.length for extent in added] == [8]

    def test_growth_doubles_file(self):
        """"the extent size is chosen to double the current size of the file"""
        allocator = BinaryBuddyAllocator(1 << 16)
        handle = allocator.create()
        allocator.extend(handle, 8)
        allocator.extend(handle, 1)   # current 8 -> new extent 8
        allocator.extend(handle, 1)   # current 16 -> new extent 16
        allocator.extend(handle, 1)   # current 32 -> new extent 32
        assert [extent.length for extent in handle.extents] == [8, 8, 16, 32]

    def test_large_extend_adds_doubling_chain(self):
        allocator = BinaryBuddyAllocator(1 << 16)
        handle = allocator.create()
        allocator.extend(handle, 8)
        allocator.extend(handle, 100)  # needs 8 -> 16 -> 32 -> 64
        sizes = [extent.length for extent in handle.extents]
        assert sizes == [8, 8, 16, 32, 64]
        assert handle.allocated_units >= 108

    def test_every_extent_is_power_of_two(self):
        allocator = BinaryBuddyAllocator(100_000)
        handle = allocator.create()
        allocator.extend(handle, 77)
        for extent in handle.extents:
            assert extent.length & (extent.length - 1) == 0

    def test_alignment_invariant(self):
        """A block of size 2^k starts at a multiple of 2^k."""
        allocator = BinaryBuddyAllocator(1 << 16)
        handles = [allocator.create() for _ in range(5)]
        for index, handle in enumerate(handles):
            allocator.extend(handle, 3 + index * 7)
        for handle in handles:
            for extent in handle.extents:
                assert extent.start % extent.length == 0

    def test_doubling_beyond_capacity_fails_cleanly(self):
        """Doubling past the largest segment raises DiskFullError rather
        than requesting an order that cannot exist."""
        allocator = BinaryBuddyAllocator(64)
        handle = allocator.create()
        allocator.extend(handle, 32)
        with pytest.raises(DiskFullError):
            allocator.extend(handle, 31)  # doubling wants another 32+
        assert max(e.length for e in handle.extents) <= 64
        allocator.check_free_space()


class TestFreeSpace:
    def test_full_cycle_restores_everything(self):
        capacity = 100_000  # non-power-of-two: exercises the segment forest
        allocator = BinaryBuddyAllocator(capacity)
        handles = []
        for index in range(20):
            handle = allocator.create()
            allocator.extend(handle, 50 + index * 13)
            handles.append(handle)
        allocator.check_free_space()
        allocator.check_no_overlap()
        for handle in handles:
            allocator.delete(handle)
        assert allocator.free_units == capacity
        allocator.check_free_space()

    @staticmethod
    def free_by_order(allocator):
        return allocator.snapshot_free_state()["free_by_order"]

    def test_coalescing_rebuilds_large_blocks(self):
        allocator = BinaryBuddyAllocator(1 << 12)
        store = allocator.store
        # Split the whole space into two 2048 halves, then free both:
        # the buddy rule must knit the original 4096 block back together.
        low = store.take_split_in_region(2048, 0, 4096)
        high, _ = store.take_run_in_region(2048, 0, 4096, None, 1)
        assert (low, high) == (0, 2048)
        store.release(low, 2048)
        assert self.free_by_order(allocator) == {"11": [0]}
        store.release(high, 2048)
        assert self.free_by_order(allocator) == {"12": [0]}

    def test_no_coalescing_while_buddy_in_use(self):
        allocator = BinaryBuddyAllocator(1 << 12)
        store = allocator.store
        low = store.take_split_in_region(2048, 0, 4096)
        high, _ = store.take_run_in_region(2048, 0, 4096, None, 1)
        store.release(high, 2048)
        # Low half still allocated: the free half must stay at order 11.
        assert self.free_by_order(allocator) == {"11": [2048]}
        store.release(low, 2048)
        assert self.free_by_order(allocator) == {"12": [0]}

    def test_disk_full_reports_free(self):
        allocator = BinaryBuddyAllocator(64)
        handle = allocator.create()
        allocator.extend(handle, 32)
        with pytest.raises(DiskFullError) as info:
            allocator.extend(handle, 64)
        assert info.value.free_units == allocator.free_units

    def test_failed_extend_rolls_back(self):
        allocator = BinaryBuddyAllocator(128)
        handle = allocator.create()
        allocator.extend(handle, 16)
        snapshot = list(handle.extents)
        before = allocator.free_units
        with pytest.raises(DiskFullError):
            allocator.extend(handle, 1000)
        assert handle.extents == snapshot
        assert allocator.free_units == before
        allocator.check_free_space()

    def test_buddy_of_respects_segments(self):
        allocator = BinaryBuddyAllocator(96)  # segments: 64@0, 32@64
        store = allocator.store
        assert self.free_by_order(allocator) == {"5": [64], "6": [0]}
        # A 32-unit block at 64 is a whole segment: freed, it has no
        # buddy, even though a free 64-block sits right before it.
        tail, _ = store.take_run_in_region(32, 0, 96, None, 1)
        assert tail == 64
        store.release(tail, 32)
        assert self.free_by_order(allocator) == {"5": [64], "6": [0]}
        # A 32-unit block at 0 buddies with the one at 32.
        low = store.take_split_in_region(32, 0, 96)
        assert (low, self.free_by_order(allocator)) == (0, {"5": [32, 64]})
        store.release(low, 32)
        assert self.free_by_order(allocator) == {"5": [64], "6": [0]}

    def test_free_block_counts(self):
        allocator = BinaryBuddyAllocator(64)
        assert self.free_by_order(allocator) == {"6": [0]}
        allocator.create()  # a one-unit descriptor splits the 64-block
        free_by_order = self.free_by_order(allocator)
        assert free_by_order == {
            str(order): [1 << order] for order in range(6)
        }
        assert sum(
            len(addresses) << int(order)
            for order, addresses in free_by_order.items()
        ) == 63


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=30),
    delete_mask=st.lists(st.booleans(), min_size=30, max_size=30),
)
@settings(max_examples=60)
def test_property_no_overlap_and_conservation(sizes, delete_mask):
    allocator = BinaryBuddyAllocator(8192, RandomStream(0))
    live = []
    for size, delete in zip(sizes, delete_mask):
        try:
            handle = allocator.create()
            allocator.extend(handle, size)
            live.append(handle)
        except DiskFullError:
            break
        if delete and live:
            victim = live.pop(0)
            allocator.delete(victim)
    allocator.check_no_overlap()
    allocator.check_free_space()
    allocated = sum(h.allocated_units + 1 for h in live)  # +1 descriptor
    assert allocated == allocator.allocated_units


class TestDecompose:
    def test_exact_bits(self):
        from repro.alloc.buddy import decompose_power_of_two

        assert decompose_power_of_two(7, 3) == [4, 2, 1]
        assert decompose_power_of_two(8, 3) == [8]
        assert decompose_power_of_two(1, 1) == [1]

    def test_tail_rounds_up(self):
        from repro.alloc.buddy import decompose_power_of_two

        assert decompose_power_of_two(31, 3) == [16, 8, 8]
        assert decompose_power_of_two(100, 2) == [64, 64]
        assert decompose_power_of_two(100, 1) == [128]

    def test_always_covers(self):
        from repro.alloc.buddy import decompose_power_of_two

        for n in range(1, 300):
            for terms in (1, 2, 3, 4):
                sizes = decompose_power_of_two(n, terms)
                assert len(sizes) <= terms
                assert sum(sizes) >= n
                assert sum(sizes) < 2 * n + 2
                assert all(s & (s - 1) == 0 for s in sizes)

    def test_bad_arguments(self):
        from repro.alloc.buddy import decompose_power_of_two
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            decompose_power_of_two(0, 3)
        with pytest.raises(ConfigurationError):
            decompose_power_of_two(5, 0)


class TestReallocator:
    def make_populated(self, n_files=10):
        allocator = BinaryBuddyAllocator(100_000)
        lengths = {}
        for index in range(n_files):
            handle = allocator.create()
            length = 50 + 313 * index
            # Grow in small steps so the doubling chain fragments badly.
            grown = 0
            while grown < length:
                step = min(40, length - grown)
                allocator.extend(handle, step)
                grown = handle.allocated_units
            lengths[handle.file_id] = length
        return allocator, lengths

    def test_reshapes_to_max_extents(self):
        allocator, lengths = self.make_populated()
        allocator.reallocate(lengths, max_extents=3)
        for handle in allocator.files.values():
            assert handle.extent_count <= 3
        allocator.check_no_overlap()
        allocator.check_free_space()

    def test_reduces_internal_fragmentation(self):
        from repro.alloc.metrics import measure_fragmentation

        allocator, lengths = self.make_populated()
        used = {fid: float(n) for fid, n in lengths.items()}
        before = measure_fragmentation(allocator, used).internal_fraction
        allocator.reallocate(lengths)
        after = measure_fragmentation(allocator, used).internal_fraction
        assert after < before
        assert after < 0.10  # Koch: "average under 4%" at scale

    def test_idempotent_second_run(self):
        allocator, lengths = self.make_populated()
        allocator.reallocate(lengths)
        assert allocator.reallocate(lengths) == 0  # already minimal

    def test_skips_unplaceable_files_without_corruption(self):
        allocator = BinaryBuddyAllocator(128)
        big = allocator.create()
        allocator.extend(big, 33)     # one 64-unit extent
        small = allocator.create()
        allocator.extend(small, 20)   # one 32-unit extent
        # big wants [32, 1] but no free 32-block exists (31 units remain,
        # fragmented smaller): it must be skipped, untouched, uncorrupted.
        before_big = list(big.extents)
        allocator.reallocate({big.file_id: 33, small.file_id: 20})
        assert big.extents == before_big
        assert small.extent_count <= 3
        allocator.check_no_overlap()
        allocator.check_free_space()

"""Unit tests for the fixed-block baseline allocator."""

import pytest

from repro.alloc.fixed import FixedBlockAllocator
from repro.errors import ConfigurationError, DiskFullError, FileSystemError


def make(capacity=1000, block=4, aged=False):
    # Most structural tests use a fresh (sequential) free list so block
    # addresses are predictable; aging is covered explicitly below.
    return FixedBlockAllocator(capacity, block, aged=aged)


class TestAllocation:
    def test_blocks_are_block_sized(self):
        allocator = make()
        handle = allocator.create()
        added = allocator.extend(handle, 10)
        assert all(extent.length == 4 for extent in added)
        assert sum(extent.length for extent in added) == 12  # rounded up

    def test_initial_allocation_is_sequential(self):
        allocator = make()
        handle = allocator.create()  # descriptor takes block 0
        added = allocator.extend(handle, 12)
        starts = [extent.start for extent in added]
        assert starts == [4, 8, 12]

    def test_descriptor_costs_whole_block(self):
        allocator = make()
        handle = allocator.create()
        assert handle.descriptor.length == 4
        assert allocator.allocated_units == 4

    def test_freed_blocks_reused_lifo(self):
        """Churn scatters the free list — the aging the paper describes."""
        allocator = make()
        first = allocator.create()
        allocator.extend(first, 8)
        block_addresses = [extent.start for extent in first.extents]
        allocator.delete(first)
        second = allocator.create()
        added = allocator.extend(second, 4)
        # LIFO: the most recently freed block comes back first.
        assert added[0].start == block_addresses[0]

    def test_disk_full(self):
        allocator = make(capacity=20, block=4)  # 5 blocks
        handle = allocator.create()  # 1 block
        allocator.extend(handle, 16)  # 4 blocks
        with pytest.raises(DiskFullError) as info:
            allocator.extend(handle, 1)
        assert info.value.free_units == 0

    def test_failed_extend_leaves_state_clean(self):
        allocator = make(capacity=20, block=4)
        handle = allocator.create()
        allocator.extend(handle, 8)
        before = allocator.allocated_units
        with pytest.raises(DiskFullError):
            allocator.extend(handle, 100)
        assert allocator.allocated_units == before
        allocator.check_no_overlap()

    def test_truncate_frees_whole_blocks(self):
        allocator = make()
        handle = allocator.create()
        allocator.extend(handle, 16)
        freed = allocator.truncate(handle, 6)
        assert freed == 4  # one whole block; 6 units spans only 1.5 blocks
        assert handle.allocated_units == 12

    def test_delete_restores_free_space(self):
        allocator = make()
        handle = allocator.create()
        allocator.extend(handle, 40)
        allocator.delete(handle)
        assert allocator.allocated_units == 0
        assert allocator.free_units == 1000

    def test_operations_on_deleted_file_raise(self):
        allocator = make()
        handle = allocator.create()
        allocator.delete(handle)
        with pytest.raises(FileSystemError):
            allocator.extend(handle, 4)
        with pytest.raises(FileSystemError):
            allocator.delete(handle)

    def test_foreign_extent_release_raises(self):
        from repro.alloc.base import Extent

        allocator = make()
        handle = allocator.create()
        allocator.extend(handle, 4)
        handle.extents.append(Extent(17, 3))  # misaligned garbage
        with pytest.raises(ConfigurationError):
            allocator.truncate(handle, 3)


class TestConstruction:
    def test_zero_block_raises(self):
        with pytest.raises(ConfigurationError):
            FixedBlockAllocator(100, 0)

    def test_capacity_smaller_than_block_raises(self):
        with pytest.raises(ConfigurationError):
            FixedBlockAllocator(3, 4)

    def test_usable_units_excludes_sliver(self):
        allocator = FixedBlockAllocator(1002, 4)
        handle = allocator.create()
        with pytest.raises(DiskFullError):
            while True:
                allocator.extend(handle, 4)
        assert allocator.allocated_units == 1000

    def test_aged_free_list_is_scrambled(self):
        from repro.sim.rng import RandomStream

        aged = FixedBlockAllocator(10_000, 4, RandomStream(1), aged=True)
        handle = aged.create()
        added = aged.extend(handle, 40)
        starts = [extent.start for extent in added]
        assert starts != sorted(starts)  # not sequential

    def test_aged_is_deterministic_per_seed(self):
        from repro.sim.rng import RandomStream

        runs = []
        for _ in range(2):
            allocator = FixedBlockAllocator(10_000, 4, RandomStream(9), aged=True)
            handle = allocator.create()
            runs.append([e.start for e in allocator.extend(handle, 40)])
        assert runs[0] == runs[1]

"""Unit + property tests for the restricted buddy policy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc.restricted import (
    RestrictedBuddyAllocator,
    RestrictedBuddyConfig,
    ladder_from_sizes,
)
from repro.errors import ConfigurationError, DiskFullError
from repro.sim.rng import RandomStream


def make(capacity=200_000, sizes=(1, 8, 64), grow=1, clustered=True, region=32_768):
    config = RestrictedBuddyConfig(
        block_sizes_units=sizes,
        grow_factor=grow,
        clustered=clustered,
        region_units=region,
    )
    return RestrictedBuddyAllocator(capacity, config, RandomStream(1))


class TestConfig:
    def test_bad_ladder_raises(self):
        with pytest.raises(ConfigurationError):
            RestrictedBuddyConfig(block_sizes_units=())
        with pytest.raises(ConfigurationError):
            RestrictedBuddyConfig(block_sizes_units=(8, 1))
        with pytest.raises(ConfigurationError):
            RestrictedBuddyConfig(block_sizes_units=(3, 7))

    def test_bad_grow_raises(self):
        with pytest.raises(ConfigurationError):
            RestrictedBuddyConfig(block_sizes_units=(1, 8), grow_factor=0)

    def test_ladder_from_sizes(self):
        assert ladder_from_sizes(["1K", "8K", "64K"], 1024) == (1, 8, 64)

    def test_ladder_not_unit_multiple_raises(self):
        with pytest.raises(ConfigurationError):
            ladder_from_sizes(["1K", "1.5K"], 1024)

    def test_label(self):
        config = RestrictedBuddyConfig(block_sizes_units=(1, 8), grow_factor=2,
                                       clustered=False)
        assert config.label() == "2 sizes/grow 2/unclustered"


class TestGrowPolicy:
    def test_grow_factor_one_tier_boundaries(self):
        """g=1: eight 1K blocks, then 8K blocks, then 64K at 72K total."""
        allocator = make()
        handle = allocator.create()
        allocator.extend(handle, 72)
        sizes = [extent.length for extent in handle.extents]
        assert sizes == [1] * 8 + [8] * 8
        allocator.extend(handle, 1)
        assert handle.extents[-1].length == 64

    def test_grow_factor_two_defers_tiers(self):
        """g=2: sixteen 1K blocks before the first 8K block (Figure 3)."""
        allocator = make(grow=2)
        handle = allocator.create()
        allocator.extend(handle, 17)
        sizes = [extent.length for extent in handle.extents]
        assert sizes == [1] * 16 + [8]

    def test_block_sizes_monotone_per_file(self):
        allocator = make()
        handle = allocator.create()
        allocator.extend(handle, 200)
        sizes = [extent.length for extent in handle.extents]
        assert sizes == sorted(sizes)

    def test_truncate_retier(self):
        """After truncating back into a lower tier, growth resumes there."""
        allocator = make()
        handle = allocator.create()
        allocator.extend(handle, 80)  # into the 64K tier
        assert handle.extents[-1].length == 64
        allocator.truncate(handle, 64)
        assert handle.policy_state["tier"] == 1  # back to the 8K tier
        allocator.extend(handle, 8)
        assert handle.extents[-1].length == 8

    def test_delete_resets_everything(self):
        allocator = make()
        handle = allocator.create()
        allocator.extend(handle, 100)
        allocator.delete(handle)
        assert allocator.allocated_units == 0


class TestContiguity:
    def test_single_file_mostly_contiguous(self):
        allocator = make()
        handle = allocator.create()
        allocator.extend(handle, 72)
        # All transitions within a tier are contiguous; only tier changes
        # may break (the Figure 3 effect).
        transitions = list(zip(handle.extents, handle.extents[1:]))
        contiguous = sum(a.end == b.start for a, b in transitions)
        assert contiguous >= len(transitions) * 14 / 15

    def test_alignment_invariant(self):
        allocator = make()
        handles = []
        for index in range(10):
            handle = allocator.create()
            allocator.extend(handle, 10 + 17 * index)
            handles.append(handle)
        for handle in handles:
            for extent in handle.extents:
                assert extent.start % extent.length == 0

    def test_interleaved_files_stay_disjoint(self):
        allocator = make()
        a = allocator.create()
        b = allocator.create()
        for _ in range(10):
            allocator.extend(a, 4)
            allocator.extend(b, 4)
        allocator.check_no_overlap()
        allocator.check_free_space()


class TestRegions:
    def test_descriptors_spread_across_regions(self):
        allocator = make(capacity=131_072, region=32_768)  # 4 regions
        regions = set()
        for _ in range(4):
            handle = allocator.create()
            regions.add(handle.descriptor.start // 32_768)
        assert len(regions) > 1  # round-robin placement

    def test_file_blocks_near_descriptor(self):
        allocator = make(capacity=131_072, region=32_768)
        handle = allocator.create()
        allocator.extend(handle, 8)
        descriptor_region = handle.descriptor.start // 32_768
        block_region = handle.extents[0].start // 32_768
        assert block_region == descriptor_region

    def test_unclustered_single_region(self):
        allocator = make(clustered=False)
        assert allocator._n_regions == 1

    def test_spill_to_other_region_when_full(self):
        allocator = make(capacity=131_072, sizes=(1, 8), region=32_768)
        # Fill region 0 nearly solid, then force an allocation that cannot
        # fit there; it must land in another region, not fail.
        big = allocator.create()
        allocator.extend(big, 40_000)
        small = allocator.create()
        allocator.extend(small, 8)
        allocator.check_no_overlap()


class TestFailure:
    def test_disk_full_raises(self):
        allocator = make(capacity=1024, sizes=(1, 8))
        handle = allocator.create()
        with pytest.raises(DiskFullError):
            allocator.extend(handle, 10_000)

    def test_failed_extend_rolls_back(self):
        allocator = make(capacity=1024, sizes=(1, 8))
        handle = allocator.create()
        allocator.extend(handle, 100)
        extents_before = list(handle.extents)
        free_before = allocator.store.free_units
        with pytest.raises(DiskFullError):
            allocator.extend(handle, 10_000)
        assert handle.extents == extents_before
        assert allocator.store.free_units == free_before
        allocator.check_free_space()


@given(
    script=st.lists(
        st.tuples(
            st.sampled_from(["extend", "truncate", "delete", "create"]),
            st.integers(min_value=1, max_value=150),
        ),
        max_size=40,
    ),
    clustered=st.booleans(),
    grow=st.sampled_from([1, 2]),
)
@settings(max_examples=50, deadline=None)
def test_property_restricted_invariants(script, clustered, grow):
    allocator = make(capacity=8192, sizes=(1, 8, 64), grow=grow,
                     clustered=clustered, region=2048)
    live = []
    for action, amount in script:
        try:
            if action == "create" or not live:
                live.append(allocator.create())
            elif action == "extend":
                allocator.extend(live[amount % len(live)], amount)
            elif action == "truncate":
                allocator.truncate(live[amount % len(live)], amount)
            elif action == "delete":
                allocator.delete(live.pop(amount % len(live)))
        except DiskFullError:
            pass
        allocator.check_no_overlap()
        allocator.check_free_space()
    for handle in live:
        allocator.delete(handle)
    assert allocator.allocated_units == 0
    allocator.check_free_space()


class TestRegionSelectionSteps:
    """The paper's three-step region-selection algorithm, step by step."""

    def test_step1_splits_within_optimal_region_first(self):
        """Step 1 includes in-region splitting: "If a request is made to a
        specific region, and there is adequate contiguous space, but no
        block of the appropriate size, then a larger block is split."""
        allocator = make(capacity=131_072, sizes=(1, 8, 64), region=32_768)
        assert allocator._take_blocks(1, 0, None, 4) == (0, 1)
        # A region-0 split of the 64-block at 0, not a hunt elsewhere:
        # its remainders sit on the smaller lists.
        assert allocator.store.snapshot()["lists"] == {
            "1": list(range(1, 8)),
            "8": list(range(8, 64, 8)),
        }
        assert allocator._last_satisfied_region == 0

    def test_step1_exact_probe_takes_a_run_inside_the_region(self):
        """Only step 1's exact probe takes several blocks: the run from
        the preferred address, stopping at the region's end."""
        allocator = make(capacity=131_072, sizes=(1, 8, 64), region=32_768)
        assert allocator._take_blocks(64, 1, 32_768 + 128, 4) == (32_896, 4)
        assert allocator._take_blocks(64, 0, 32_640, 8) == (32_640, 2)
        assert allocator._last_satisfied_region == 0

    def test_step2_exact_block_elsewhere_when_region_exhausted(self):
        """When the optimal region has nothing at all, the hunt moves to
        the next region holding a block of the correct size."""
        allocator = make(capacity=131_072, sizes=(1, 8, 64), region=32_768)
        store = allocator.store
        # Exhaust region 0 completely (its 512 maximum-size blocks).
        assert store.take_run_in_region(64, 0, 32_768, None, 512) == (0, 512)
        # Seed loose 1K blocks in region 2 by splitting a 64-block there
        # and keeping its first unit allocated (so no re-coalescing).
        assert store.take_split_in_region(1, 65_536, 98_304) == 65_536
        # Step 2: the exact-size block in region 2 wins over splitting a
        # larger block in region 1, and takes one block only.
        assert allocator._take_blocks(1, 0, None, 4) == (65_537, 1)
        snap = store.snapshot()
        assert snap["lists"]["1"] == list(range(65_538, 65_544))
        assert snap["max_slots"][:512] == list(range(512, 1024))  # region 1
        assert allocator._last_satisfied_region == 2

    def test_clustered_allocations_follow_descriptor_region(self):
        allocator = make(capacity=131_072, sizes=(1, 8, 64), region=32_768)
        handles = [allocator.create() for _ in range(6)]
        for handle in handles:
            allocator.extend(handle, 12)
        for handle in handles:
            descriptor_region = handle.descriptor.start // 32_768
            block_regions = {e.start // 32_768 for e in handle.extents}
            assert block_regions == {descriptor_region}

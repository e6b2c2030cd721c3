"""Unit + property tests for the extent-based allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc.extent import ExtentAllocator, ExtentSizeConfig, FitPolicy
from repro.errors import ConfigurationError, DiskFullError
from repro.sim.rng import RandomStream


def make(capacity=100_000, means=(8, 512), fit=FitPolicy.FIRST_FIT, seed=1):
    return ExtentAllocator(
        capacity, ExtentSizeConfig(range_means_units=means), fit, RandomStream(seed)
    )


class TestSizeConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExtentSizeConfig(range_means_units=())
        with pytest.raises(ConfigurationError):
            ExtentSizeConfig(range_means_units=(8, 4))  # descending
        with pytest.raises(ConfigurationError):
            ExtentSizeConfig(range_means_units=(0,))

    def test_pick_range_log_distance(self):
        config = ExtentSizeConfig(range_means_units=(1, 8, 1024))
        assert config.pick_range_mean(1) == 1
        assert config.pick_range_mean(8) == 8
        assert config.pick_range_mean(24) == 8      # 3x from 8, 42x from 1024
        assert config.pick_range_mean(512) == 1024  # 2x from 1024, 64x from 8
        assert config.pick_range_mean(0) == 1       # no hint -> smallest

    def test_n_ranges(self):
        assert ExtentSizeConfig(range_means_units=(1, 2, 4)).n_ranges == 3


class TestFileExtentSize:
    def test_extent_size_drawn_once_per_file(self):
        allocator = make()
        handle = allocator.create(size_hint_units=512)
        allocator.extend(handle, 2000)
        sizes = {extent.length for extent in handle.extents}
        assert len(sizes) == 1  # every extent of a file is its extent size

    def test_extent_size_near_range_mean(self):
        """sigma = 10% of mean: nearly all draws within ±40%."""
        allocator = make(means=(1000,))
        for _ in range(50):
            handle = allocator.create(size_hint_units=1000)
            size = handle.policy_state["extent_units"]
            assert 600 <= size <= 1400

    def test_growth_in_extent_chunks(self):
        allocator = make(means=(100,), seed=3)
        handle = allocator.create(size_hint_units=100)
        extent_units = handle.policy_state["extent_units"]
        allocator.extend(handle, extent_units * 2 + 1)
        assert handle.extent_count == 3


class TestFitPolicies:
    def test_first_fit_prefers_low_addresses(self):
        allocator = make(fit=FitPolicy.FIRST_FIT, means=(10,))
        first = allocator.create(size_hint_units=10)
        allocator.extend(first, 10)
        second = allocator.create(size_hint_units=10)
        allocator.extend(second, 10)
        assert second.extents[0].start > first.extents[0].start
        # Delete the first; its low hole is reused immediately.
        hole = first.extents[0].start
        allocator.delete(first)
        third = allocator.create(size_hint_units=10)
        allocator.extend(third, 5)
        assert third.extents[0].start <= hole + 2  # descriptor may nibble

    def test_best_fit_leaves_large_holes_intact(self):
        allocator = make(capacity=1000, means=(50,), fit=FitPolicy.BEST_FIT, seed=9)
        a = allocator.create(size_hint_units=50)
        allocator.extend(a, 40)
        b = allocator.create(size_hint_units=50)
        allocator.extend(b, 40)
        size_a = a.extents[0].length
        allocator.delete(a)  # a hole of exactly one extent + descriptor
        c = allocator.create(size_hint_units=50)
        allocator.extend(c, 40)
        # Best fit reuses the freed extent-sized hole rather than the big
        # tail hole.
        assert c.extents[0].start < b.extents[0].start + b.extents[0].length + 4

    def test_disk_full_raises(self):
        allocator = make(capacity=100, means=(30,), seed=2)
        handle = allocator.create(size_hint_units=30)
        with pytest.raises(DiskFullError):
            allocator.extend(handle, 10_000)

    def test_failed_extend_rolls_back_partial(self):
        allocator = make(capacity=100, means=(30,), seed=2)
        handle = allocator.create(size_hint_units=30)
        free_before = allocator.free_units
        with pytest.raises(DiskFullError):
            allocator.extend(handle, 10_000)
        assert allocator.free_units == free_before
        assert handle.extent_count == 0
        allocator.check_free_space()


class TestCoalescing:
    def test_delete_coalesces_adjacent_extents(self):
        allocator = make(capacity=10_000, means=(100,), seed=4)
        handles = [allocator.create(size_hint_units=100) for _ in range(5)]
        for handle in handles:
            allocator.extend(handle, 250)
        for handle in handles:
            allocator.delete(handle)
        assert allocator.free_units == 10_000
        assert allocator.snapshot_free_state()["holes"] == [[0, 10_000]]

    def test_truncate_returns_tail_extents(self):
        allocator = make(means=(100,), seed=5)
        handle = allocator.create(size_hint_units=100)
        allocator.extend(handle, 350)
        count = handle.extent_count
        extent_units = handle.policy_state["extent_units"]
        allocator.truncate(handle, extent_units)
        assert handle.extent_count == count - 1
        allocator.check_free_space()

    def test_average_extents_per_file(self):
        allocator = make(means=(100,), seed=6)
        a = allocator.create(size_hint_units=100)
        allocator.extend(a, 100)
        b = allocator.create(size_hint_units=100)
        allocator.extend(b, 300)
        average = allocator.average_extents_per_file()
        assert average == pytest.approx((a.extent_count + b.extent_count) / 2)


@given(
    actions=st.lists(
        st.tuples(st.sampled_from(["grow", "shrink", "delete"]),
                  st.integers(min_value=1, max_value=400)),
        max_size=40,
    ),
    fit=st.sampled_from([FitPolicy.FIRST_FIT, FitPolicy.BEST_FIT]),
)
@settings(max_examples=60, deadline=None)
def test_property_extent_allocator_invariants(actions, fit):
    allocator = make(capacity=20_000, means=(50,), fit=fit, seed=11)
    live = []
    for action, amount in actions:
        try:
            if action == "grow":
                if not live or amount % 3 == 0:
                    live.append(allocator.create(size_hint_units=50))
                allocator.extend(live[-1], amount)
            elif action == "shrink" and live:
                allocator.truncate(live[amount % len(live)], amount)
            elif action == "delete" and live:
                allocator.delete(live.pop(amount % len(live)))
        except DiskFullError:
            pass
        allocator.check_free_space()
        allocator.check_no_overlap()
    for handle in live:
        allocator.delete(handle)
    assert allocator.free_units == 20_000
    assert len(allocator.snapshot_free_state()["holes"]) == 1

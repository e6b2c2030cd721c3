"""Unit + property tests for the restricted buddy free store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc.freestore import LadderFreeStore
from repro.errors import SimulationError


class TestLadderConstruction:
    def test_bad_ladders_raise(self):
        with pytest.raises(SimulationError):
            LadderFreeStore(100, ())
        with pytest.raises(SimulationError):
            LadderFreeStore(100, (8, 1))  # descending
        with pytest.raises(SimulationError):
            LadderFreeStore(100, (3, 8))  # 3 does not divide 8

    def test_initial_free_covers_addressable_space(self):
        store = LadderFreeStore(100, (1, 8))
        assert store.free_units == 100

    def test_tail_seeding(self):
        # 100 units with max size 64: one max block + tail of 36 -> 4x8 + 4x1.
        store = LadderFreeStore(100, (1, 8, 64))
        assert store.free_units == 100
        store.check_invariants()

    def test_unaddressable_residue_dropped(self):
        # Smallest block 4: 102 units leaves 2 unaddressable.
        store = LadderFreeStore(102, (4, 16))
        assert store.free_units == 100


class TestTakeAndSplit:
    def test_take_exact_max_block(self):
        store = LadderFreeStore(256, (1, 8, 64))
        assert store.take_run_in_region(64, 0, 256, None, 1) == (0, 1)
        assert store.free_units == 192
        store.check_invariants()

    def test_take_split_keeps_leading_piece(self):
        store = LadderFreeStore(64, (1, 8, 64))
        address = store.take_split_in_region(1, 0, 64)
        assert address == 0
        # Remainder: 7 x 1 and 7 x 8 on the free lists.
        assert store.free_units == 63
        assert store.snapshot()["lists"] == {
            "1": list(range(1, 8)),
            "8": list(range(8, 64, 8)),
        }
        store.check_invariants()

    def test_take_prefers_contiguity(self):
        store = LadderFreeStore(64, (1, 8))
        store.take_split_in_region(1, 0, 64)  # unit 0 taken; 1..7 free
        assert store.take_run_in_region(1, 0, 64, 1, 1) == (1, 1)
        # prefer an occupied address -> nearest following free block
        assert store.take_run_in_region(1, 0, 64, 1, 1) == (2, 1)
        # prefer below the window -> the window's first free block
        assert store.take_run_in_region(1, 5, 64, 0, 1) == (5, 1)

    def test_take_range_bounds(self):
        store = LadderFreeStore(128, (1, 8, 64))
        assert store.take_run_in_region(64, 0, 64, None, 1) == (0, 1)
        # The block at 64 starts at ``high``: outside the window.
        assert store.take_run_in_region(64, 0, 64, None, 1) is None
        assert store.take_split_in_region(1, 0, 64) is None
        assert store.take_run_in_region(64, 64, 128, None, 1) == (64, 1)
        store.check_invariants()

    def test_splittable_finds_smallest_adequate(self):
        store = LadderFreeStore(128, (1, 8, 64))
        assert store.take_split_in_region(8, 0, 128) == 0
        # The next 1-unit request splits the free 8-block at 8, not the
        # free 64-block at 64.
        assert store.take_split_in_region(1, 0, 128) == 8
        snap = store.snapshot()
        assert snap["max_slots"] == [1]
        assert snap["lists"] == {
            "1": list(range(9, 16)),
            "8": list(range(16, 64, 8)),
        }
        store.check_invariants()

    def test_take_run_stops_at_gap_cap_and_window(self):
        store = LadderFreeStore(64, (1, 8))
        store.take_split_in_region(1, 0, 64)  # unit 0 taken; 1..7 free
        store.take_run_in_region(1, 0, 64, 4, 1)  # unit 4 taken
        assert store.take_run_in_region(1, 0, 64, 1, 8) == (1, 3)  # gap at 4
        assert store.take_run_in_region(1, 0, 64, 5, 2) == (5, 2)  # cap
        assert store.take_run_in_region(8, 0, 32, 16, 8) == (16, 2)  # window
        store.check_invariants()

    def test_take_run_masks_a_bitmap_run(self):
        store = LadderFreeStore(512, (8, 64), region_units=128)
        assert store.take_run_in_region(64, 0, 256, 128, 8) == (128, 2)  # window
        assert store.take_run_in_region(64, 0, 512, 0, 8) == (0, 2)  # gap at 128
        assert store.snapshot()["max_slots"] == [4, 5, 6, 7]
        assert not store.region_has_exact(64, 1)
        store.check_invariants()


class TestReleaseCoalescing:
    def test_release_coalesces_to_max_and_bitmap(self):
        store = LadderFreeStore(64, (1, 8, 64))
        store.take_split_in_region(1, 0, 64)
        store.release(0, 1)  # the 8 singles coalesce into an 8, then 8s into 64
        assert store.free_units == 64
        store.check_invariants()

    def test_partial_group_does_not_coalesce(self):
        store = LadderFreeStore(64, (1, 8, 64))
        store.take_split_in_region(1, 0, 64)       # unit 0 in use
        store.take_run_in_region(1, 0, 64, 1, 1)  # unit 1 in use
        store.release(0, 1)
        # Unit 1 still allocated: no coalescing past the 1-unit level.
        assert store.free_units == 63
        store.check_invariants()
        store.release(1, 1)
        assert store.free_units == 64
        store.check_invariants()

    def test_misaligned_release_raises(self):
        store = LadderFreeStore(64, (1, 8))
        with pytest.raises(SimulationError):
            store.release(3, 8)

    def test_double_release_raises(self):
        store = LadderFreeStore(64, (1, 8, 64))
        store.take_split_in_region(8, 0, 64)
        store.release(0, 8)
        with pytest.raises(SimulationError):
            store.release(0, 8)

    def test_double_free_found_above_rungs_with_free_blocks(self):
        """The covering scan stops only at a free block inside the
        covering block's sibling group, never at one elsewhere."""
        store = LadderFreeStore(64, (1, 2, 4, 8, 16, 32, 64))
        assert store.take_split_in_region(1, 0, 64) == 0
        assert store.take_run_in_region(32, 0, 64, None, 1) == (32, 1)
        store.release(32, 32)
        assert store.snapshot()["lists"] == {
            "1": [1], "2": [2], "4": [4], "8": [8], "16": [16], "32": [32]
        }
        # [40, 48) lies in the free 32-block at 32; rungs 8 and 16 hold
        # free blocks, but outside that block's group.
        with pytest.raises(SimulationError, match="free 32-block at 32"):
            store.release(40, 8)
        # A busy buddy with a free sibling one rung up is a valid release.
        assert store.take_run_in_region(8, 0, 64, None, 1) == (8, 1)
        store.release(8, 8)
        store.check_invariants()


@given(
    script=st.lists(
        st.tuples(
            st.sampled_from([1, 8, 64]),
            st.integers(min_value=1, max_value=4),
            st.booleans(),
        ),
        max_size=50,
    )
)
@settings(max_examples=80, deadline=None)
def test_property_ladder_conservation(script):
    """Random take/release scripts preserve accounting and invariants."""
    store = LadderFreeStore(512, (1, 8, 64))
    live: list[tuple[int, int]] = []
    for size, max_blocks, release_one in script:
        if release_one and live:
            address, block = live.pop()
            store.release(address, block)
        else:
            run = store.take_run_in_region(size, 0, 512, None, max_blocks)
            if run is not None:
                start, count = run
                assert 1 <= count <= max_blocks
                live.extend((start + i * size, size) for i in range(count))
            else:
                address = store.take_split_in_region(size, 0, 512)
                if address is not None:
                    live.append((address, size))
        store.check_invariants()
    assert store.free_units + sum(size for _, size in live) == 512


class TestRaggedCapacityTail:
    """``capacity_units`` not a multiple of the largest ladder size.

    The bitmap covers only whole maximum-size blocks; the partial tail is
    seeded onto the free lists as the largest aligned blocks that fit,
    and any residue below the smallest block size is unaddressable.
    These tests pin that representation (the alternative — rejecting the
    config — was considered and not taken: ragged capacities arise from
    real disk geometries and the representation is exact).
    """

    def test_construction_accounts_for_tail(self):
        # capacity 100, ladder (8, 64): one max block (64), tail 64..100
        # seeds four 8-blocks (64, 72, 80, 88, 96 would overrun: 96+8=104)
        # -> 64 + 4*8 = 96 free; residue 100 % 8 = 4 unaddressable.
        store = LadderFreeStore(100, (8, 64))
        assert store.free_units == 96
        snap = store.snapshot()
        assert snap["max_slots"] == [0]
        assert snap["lists"] == {"8": [64, 72, 80, 88]}
        store.check_invariants()

    def test_tail_smaller_than_smallest_block_is_excluded(self):
        # capacity 68, ladder (8, 64): tail of 4 units is unaddressable.
        store = LadderFreeStore(68, (8, 64))
        assert store.free_units == 64
        assert store.snapshot()["lists"] == {}
        store.check_invariants()

    def test_tail_blocks_allocate_and_release(self):
        store = LadderFreeStore(100, (8, 64))
        found, _ = store.take_run_in_region(8, 64, 100, None, 1)
        assert found == 64
        assert store.free_units == 88
        store.check_invariants()
        store.release(found, 8)
        assert store.free_units == 96
        store.check_invariants()

    def test_tail_group_never_coalesces_into_phantom_max_block(self):
        # Free every tail block: they must stay 8-blocks — coalescing to
        # a 64-block at 64 would claim units 64..128 past capacity 100.
        store = LadderFreeStore(100, (8, 64))
        assert store.take_run_in_region(8, 64, 100, None, 8) == (64, 4)
        for address in (64, 72, 80, 88):
            store.release(address, 8)
        snap = store.snapshot()
        assert snap["lists"] == {"8": [64, 72, 80, 88]}
        assert snap["max_slots"] == [0]
        store.check_invariants()

    def test_double_free_detected_in_tail(self):
        store = LadderFreeStore(100, (8, 64))
        with pytest.raises(SimulationError, match="double free"):
            store.release(72, 8)

    def test_matches_reference_on_ragged_capacity(self):
        from tests.oracles.reference import ReferenceLadderFreeStore

        for capacity in (68, 100, 127, 129, 1000):
            store = LadderFreeStore(capacity, (1, 8, 64))
            reference = ReferenceLadderFreeStore(capacity, (1, 8, 64))
            assert store.snapshot() == reference.snapshot(), capacity
            assert store.free_units == capacity  # smallest size is 1

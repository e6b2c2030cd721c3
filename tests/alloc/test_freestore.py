"""Unit + property tests for the restricted buddy free store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc.freestore import FreeBlockList, LadderFreeStore
from repro.errors import SimulationError


class TestFreeBlockList:
    def test_add_remove_contains(self):
        free_list = FreeBlockList()
        free_list.add(10)
        free_list.add(5)
        assert 10 in free_list
        assert 7 not in free_list
        free_list.remove(10)
        assert 10 not in free_list

    def test_double_add_raises(self):
        free_list = FreeBlockList()
        free_list.add(1)
        with pytest.raises(SimulationError):
            free_list.add(1)

    def test_remove_missing_raises(self):
        with pytest.raises(SimulationError):
            FreeBlockList().remove(1)

    def test_ordered_queries(self):
        free_list = FreeBlockList()
        for address in (30, 10, 20):
            free_list.add(address)
        assert free_list.first() == 10
        assert free_list.first_at_or_after(15) == 20
        assert free_list.first_in_range(15, 25) == 20
        assert free_list.first_in_range(15, 20) is None

    def test_structures_stay_consistent(self):
        free_list = FreeBlockList()
        for address in (5, 1, 9, 3, 7):
            free_list.add(address)
        free_list.remove(5)
        free_list.check_consistent()
        assert free_list.addresses() == [1, 3, 7, 9]


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
        address = store.free_exact(64, 0, 256)
        assert address == 0
        store.take(address, 64)
        assert store.free_units == 192
        store.check_invariants()

    def test_take_split_keeps_leading_piece(self):
        store = LadderFreeStore(64, (1, 8, 64))
        address = store.take_split(0, 64, 1)
        assert address == 0
        # Remainder: 7 x 1 and 7 x 8 on the free lists.
        assert store.free_units == 63
        store.check_invariants()

    def test_misaligned_take_raises(self):
        store = LadderFreeStore(64, (1, 8))
        with pytest.raises(SimulationError):
            store.take(3, 8)

    def test_free_exact_prefers_contiguity(self):
        store = LadderFreeStore(64, (1, 8))
        store.take_split(0, 8, 1)  # unit 0 taken; 1..7 free
        found = store.free_exact(1, 0, 64, prefer=1)
        assert found == 1
        # prefer an occupied address -> nearest following free block
        store.take(1, 1)
        found = store.free_exact(1, 0, 64, prefer=1)
        assert found == 2

    def test_free_exact_range_bounds(self):
        store = LadderFreeStore(128, (1, 8, 64))
        assert store.free_exact(64, 0, 64) == 0
        assert store.free_exact(64, 64, 128) == 64
        store.take(0, 64)
        assert store.free_exact(64, 0, 64) is None

    def test_splittable_finds_smallest_adequate(self):
        store = LadderFreeStore(128, (1, 8, 64))
        found = store.splittable(1, 0, 128)
        assert found == (0, 8) or found == (0, 64)
        # After taking all 8s... exercise: split a 64 to get an 8.
        store.take_split(0, 64, 8)
        store.check_invariants()


class TestReleaseCoalescing:
    def test_release_coalesces_to_max_and_bitmap(self):
        store = LadderFreeStore(64, (1, 8, 64))
        store.take_split(0, 64, 1)
        store.release(0, 1)  # the 8 singles coalesce into an 8, then 8s into 64
        assert store.free_units == 64
        store.check_invariants()

    def test_partial_group_does_not_coalesce(self):
        store = LadderFreeStore(64, (1, 8, 64))
        store.take_split(0, 64, 1)  # unit 0 in use
        store.take(1, 1)            # unit 1 in use
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
        store.take_split(0, 64, 8)
        store.release(0, 8)
        with pytest.raises(SimulationError):
            store.release(0, 8)


@given(
    script=st.lists(
        st.tuples(st.sampled_from([1, 8, 64]), st.booleans()),
        max_size=50,
    )
)
@settings(max_examples=80, deadline=None)
def test_property_ladder_conservation(script):
    """Random take/release scripts preserve accounting and invariants."""
    store = LadderFreeStore(512, (1, 8, 64))
    live: list[tuple[int, int]] = []
    for size, release_one in script:
        if release_one and live:
            address, block = live.pop()
            store.release(address, block)
        else:
            found = store.free_exact(size, 0, 512)
            if found is not None:
                store.take(found, size)
                live.append((found, size))
            else:
                split = store.splittable(size, 0, 512)
                if split is not None:
                    address = store.take_split(split[0], split[1], size)
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
        found = store.free_exact(8, 64, 100)
        assert found == 64
        store.take(found, 8)
        assert store.free_units == 88
        store.check_invariants()
        store.release(found, 8)
        assert store.free_units == 96
        store.check_invariants()

    def test_tail_group_never_coalesces_into_phantom_max_block(self):
        # Free every tail block: they must stay 8-blocks — coalescing to
        # a 64-block at 64 would claim units 64..128 past capacity 100.
        store = LadderFreeStore(100, (8, 64))
        for address in (64, 72, 80, 88):
            store.take(address, 8)
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

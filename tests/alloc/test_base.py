"""Unit tests for the shared Allocator interface and Extent type."""

import random

import pytest

from repro import (
    BuddyPolicy,
    ExtentPolicy,
    FixedPolicy,
    LogStructuredPolicy,
    RestrictedPolicy,
)
from repro.alloc.base import Extent
from repro.alloc.fixed import FixedBlockAllocator
from repro.disk.array import StripedArray
from repro.disk.geometry import TINY_DISK
from repro.errors import DiskFullError, FileSystemError
from repro.fs.filesystem import FileSystem
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStream
from repro.units import KIB


class TestExtent:
    def test_end(self):
        assert Extent(10, 5).end == 15

    def test_invalid_raises(self):
        with pytest.raises(FileSystemError):
            Extent(-1, 5)
        with pytest.raises(FileSystemError):
            Extent(0, 0)

    def test_frozen(self):
        extent = Extent(0, 1)
        with pytest.raises(AttributeError):
            extent.start = 5


class TestAllocatorAccounting:
    def make(self):
        return FixedBlockAllocator(1000, 4)

    def test_capacity_must_be_positive(self):
        with pytest.raises(FileSystemError):
            FixedBlockAllocator(0, 4)

    def test_file_ids_unique(self):
        allocator = self.make()
        ids = {allocator.create().file_id for _ in range(10)}
        assert len(ids) == 10

    def test_utilization(self):
        allocator = self.make()
        handle = allocator.create()
        allocator.extend(handle, 96)
        assert allocator.utilization == pytest.approx(0.1)  # 100 of 1000

    def test_extend_non_positive_raises(self):
        allocator = self.make()
        handle = allocator.create()
        with pytest.raises(FileSystemError):
            allocator.extend(handle, 0)

    def test_truncate_negative_raises(self):
        allocator = self.make()
        handle = allocator.create()
        with pytest.raises(FileSystemError):
            allocator.truncate(handle, -1)

    def test_truncate_more_than_allocated_frees_all(self):
        allocator = self.make()
        handle = allocator.create()
        allocator.extend(handle, 12)
        freed = allocator.truncate(handle, 9999)
        assert freed == 12
        assert handle.extent_count == 0

    def test_allocation_request_counters(self):
        allocator = self.make()
        handle = allocator.create()
        allocator.extend(handle, 4)
        assert allocator.allocation_requests == 1
        assert allocator.failed_requests == 0

    def test_check_no_overlap_detects_corruption(self):
        allocator = self.make()
        a = allocator.create()
        allocator.extend(a, 4)
        a.extents.append(a.extents[0])  # deliberate corruption
        with pytest.raises(FileSystemError):
            allocator.check_no_overlap()


# -- the chunked extend against the per-request loop ----------------------------

GROW_POLICIES = [
    BuddyPolicy(),
    RestrictedPolicy(block_sizes=("1K", "8K", "64K")),
    ExtentPolicy(range_means=("4K", "16K", "64K"), fit="first"),
    ExtentPolicy(range_means=("4K", "16K", "64K"), fit="best"),
    FixedPolicy(block_size="4K"),
    LogStructuredPolicy(),
]

#: Small enough that the churn below fills it many times over.
GROW_CAPACITY = 3_000


def extend_loop(allocator, handle, needed_units, step_units):
    """The chunk loop as the file system used to run it: a ``while``
    around one request per chunk, each request the body of a one-chunk
    ``Allocator.extend``."""
    while handle.allocated_units < needed_units:
        missing = needed_units - handle.allocated_units
        request = min(missing, step_units) if step_units else missing
        allocator.allocation_requests += 1
        try:
            added = allocator._extend(handle, request)
        except DiskFullError:
            allocator.failed_requests += 1
            raise
        handle.extents.extend(added)
        total = handle.allocated_units
        for extent in added:
            total += extent.length
            handle.ends.append(total)
        allocator._allocated_units += sum(extent.length for extent in added)


def outcome(call):
    """The disk-full message a call raised, or None."""
    try:
        call()
    except DiskFullError as error:
        return str(error)
    return None


def state(allocator, handles):
    return (
        [(handle.extents, handle.ends) for handle in handles],
        allocator.allocation_requests,
        allocator.failed_requests,
        allocator.allocated_units,
        allocator.snapshot_free_state(),
    )


@pytest.mark.parametrize("policy", GROW_POLICIES, ids=lambda p: p.label)
@pytest.mark.parametrize("seed", [2, 11])
def test_extend_matches_chunk_loop(policy, seed):
    """Same extents, index, counters and free state after every step of
    a create/grow/truncate/delete script, disk-full errors included."""
    new = policy.build(GROW_CAPACITY, KIB, RandomStream(seed))
    old = policy.build(GROW_CAPACITY, KIB, RandomStream(seed))
    rng = random.Random(seed)
    live_new, live_old = [], []
    partial_failures = 0
    for _ in range(400):
        roll = rng.random()
        if roll < 0.25 or not live_new:
            hint = rng.randrange(1, 64)
            created = []
            assert outcome(lambda: created.append(new.create(hint))) == outcome(
                lambda: created.append(old.create(hint))
            )
            if created:
                live_new.append(created[0])
                live_old.append(created[1])
        elif roll < 0.85:
            index = rng.randrange(len(live_new))
            handle_new, handle_old = live_new[index], live_old[index]
            before = handle_new.allocated_units
            first_new = len(handle_new.extents)
            units = rng.randrange(1, 300)
            step = rng.choice([None, 1, 3, 8, 32])
            added = []
            failed = outcome(
                lambda: added.append(new.extend(handle_new, units, step))
            )
            assert failed == outcome(
                lambda: extend_loop(old, handle_old, before + units, step)
            )
            if not failed:
                assert added == [handle_new.extents[first_new:]]
            if failed and handle_new.allocated_units > before:
                partial_failures += 1
        elif roll < 0.95:
            index = rng.randrange(len(live_new))
            units = rng.randrange(0, 200)
            assert new.truncate(live_new[index], units) == old.truncate(
                live_old[index], units
            )
        else:
            index = rng.randrange(len(live_new))
            new.delete(live_new.pop(index))
            old.delete(live_old.pop(index))
        assert state(new, live_new) == state(old, live_old)
        new.audit_check()
    # The script must reach a disk-full chunk after whole chunks of the
    # same grow, which stay allocated.
    assert partial_failures > 0


def test_failed_growth_after_exact_tier_bump_matches_chunk_loop():
    """A failed one-call growth must not leave its rollback's tier behind.

    Ladder (1, 8), g=1, 10 units: the descriptor and eight 1-unit blocks
    leave one free 1-unit hole and no 8-unit block, and the eighth block
    bumps the tier exactly.  Rolling back a failed growth re-derives the
    tier from the surviving extents (tier 0, 8 units), so a replay from
    that state would take the hole; the chunk loop fails at once.
    """
    policy = RestrictedPolicy(block_sizes=("1K", "8K"), grow_factor=1)
    new = policy.build(10, KIB, RandomStream(1))
    old = policy.build(10, KIB, RandomStream(1))
    handle_new, handle_old = new.create(), old.create()
    new.extend(handle_new, 8, 1)
    extend_loop(old, handle_old, 8, 1)
    assert handle_new.policy_state == {"prev_end": 7, "tier": 1, "tier_units": 0}
    assert new.free_units == 1
    message = outcome(lambda: new.extend(handle_new, 2, 1))
    assert message == outcome(lambda: extend_loop(old, handle_old, 10, 1))
    assert message == "allocation of 8 units failed with 1 units still free"
    assert handle_new.policy_state == handle_old.policy_state
    assert state(new, [handle_new]) == state(old, [handle_old])
    new.audit_check()


@pytest.mark.parametrize("policy", GROW_POLICIES, ids=lambda p: p.label)
def test_multi_chunk_growth_is_one_policy_call(policy):
    """A TS-style growth (2-unit steps) is one policy call for the four
    proven policies and one call per chunk for the log-structured one,
    with the chunk loop's extents and request count either way."""
    new = policy.build(GROW_CAPACITY, KIB, RandomStream(3))
    old = policy.build(GROW_CAPACITY, KIB, RandomStream(3))
    handle_new, handle_old = new.create(8), old.create(8)
    calls = []
    policy_extend = new._extend

    def spy(handle, n_units, *step):
        calls.append((n_units, *step))
        return policy_extend(handle, n_units, *step)

    new._extend = spy
    new.extend(handle_new, 20, 2)
    extend_loop(old, handle_old, 20, 2)
    if isinstance(policy, LogStructuredPolicy):
        assert calls == [(2,)] * 10
    else:
        assert calls == [(20, 2)]
    assert state(new, [handle_new]) == state(old, [handle_old])


def test_extend_returns_the_new_tail():
    allocator = FixedBlockAllocator(1000, 4)
    handle = allocator.create()
    first = allocator.extend(handle, 6)
    assert [extent.length for extent in first] == [4, 4]
    assert handle.extents == first
    assert allocator.allocation_requests == 1
    second = allocator.extend(handle, 9, step_units=4)
    assert [extent.length for extent in second] == [4, 4, 4]
    assert handle.extents == first + second
    assert allocator.allocation_requests == 4


def test_extend_checks_liveness_size_and_step():
    allocator = FixedBlockAllocator(1000, 4)
    handle = allocator.create()
    with pytest.raises(FileSystemError, match="step"):
        allocator.extend(handle, 8, step_units=0)
    with pytest.raises(FileSystemError, match="non-positive size"):
        allocator.extend(handle, 0)
    allocator.delete(handle)
    with pytest.raises(FileSystemError, match="not live"):
        allocator.extend(handle, 8)
    assert allocator.allocation_requests == 0


def test_allocate_to_without_need_makes_no_request():
    sim = Simulator()
    array = StripedArray(sim, TINY_DISK, 4, 24 * KIB, KIB)
    allocator = FixedBlockAllocator(
        array.capacity_units, 4, RandomStream(1), aged=False
    )
    fs = FileSystem(sim, array, allocator)
    fs_file = fs.create()
    fs.allocate_to(fs_file, 8 * KIB)
    fs.allocate_to(fs_file, 5 * KIB, step_bytes=KIB)
    assert allocator.allocation_requests == 1
    assert fs_file.allocated_units == 8
    assert fs_file.length_bytes == 8 * KIB


def test_allocate_to_disk_full_keeps_covered_length():
    sim = Simulator()
    array = StripedArray(sim, TINY_DISK, 4, 24 * KIB, KIB)
    allocator = FixedBlockAllocator(
        array.capacity_units, 4, RandomStream(1), aged=False
    )
    fs = FileSystem(sim, array, allocator)
    fs_file = fs.create()
    free_units = allocator.free_units - allocator.free_units % 4
    # Whole 8-unit chunks fit until fewer than 8 units remain.
    with pytest.raises(DiskFullError):
        fs.allocate_to(fs_file, (free_units + 100) * KIB, step_bytes=8 * KIB)
    covered = free_units - free_units % 8
    assert fs_file.allocated_units == covered
    assert fs_file.length_bytes == covered * KIB
    assert allocator.failed_requests == 1
    assert allocator.allocation_requests == covered // 8 + 1

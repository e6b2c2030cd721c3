"""Randomized differential tests for the allocator hot-path rewrite.

Three layers of evidence that the optimized free structures make exactly
the decisions the originals made:

1. **Store level** — the production :class:`LadderFreeStore` and the
   retained :class:`ReferenceLadderFreeStore` (the pre-rewrite circular
   DLL + dict + bisect triple, kept verbatim in ``tests.oracles.reference``)
   take identical blocks and produce identical snapshots through long
   randomized run-take/split/release sequences, through the same
   ``take_run_in_region`` and ``take_split_in_region`` calls the
   restricted policy makes, with ``check_invariants`` run along the way.
   The binary buddy policy's power-of-two ladder store is driven the
   same way against :class:`ReferenceBuddyStore` (Koch's per-order free
   lists, segment cover and XOR coalescing walk, in
   ``tests.oracles.buddy``), comparing ``free_by_order`` snapshots.

2. **Policy level** — a :class:`RestrictedBuddyAllocator` backed by the
   production store and one backed by the reference store are driven
   through identical create/extend/truncate/delete sequences; their
   ``snapshot_free_state`` fingerprint payloads must match after every
   operation.

3. **All five policies** — every policy runs mixed create/extend/
   truncate/delete churn against an independent per-unit ownership
   model, with the policy's own ``audit_check`` (overlap + conservation)
   after every operation.
"""

import random

import pytest

from repro import (
    BuddyPolicy,
    ExtentPolicy,
    FixedPolicy,
    LogStructuredPolicy,
    RestrictedPolicy,
)
from repro.alloc.buddy import BinaryBuddyAllocator
from repro.alloc.freestore import LadderFreeStore
from tests.oracles.buddy import ReferenceBuddyStore
from tests.oracles.reference import ReferenceLadderFreeStore
from repro.alloc.restricted import (
    RestrictedBuddyAllocator,
    RestrictedBuddyConfig,
)
from repro.errors import DiskFullError
from repro.sim.rng import RandomStream

# ---------------------------------------------------------------------------
# Layer 1: store vs reference store
# ---------------------------------------------------------------------------

STORE_CASES = [
    # (capacity, ladder, region_units)
    (4096, (1, 8, 64, 512), 1024),
    (4096, (1, 8, 64, 512), None),
    (4100, (1, 8, 64, 512), 1000),  # ragged capacity, ragged regions
    (777, (1, 4, 16), 100),
    (100, (8, 64), 64),
    (68, (8, 64), None),  # capacity not a multiple of the largest size
]


def _window(rng, capacity, region_units):
    """A random ``[low, high)`` probe window.

    Half are windows the restricted policy itself asks for (one region,
    the last one cut at the capacity); the rest straddle a region edge
    or the capacity, or are arbitrary.
    """
    step = region_units or capacity
    roll = rng.random()
    if roll < 0.5:
        low = rng.randrange(0, capacity, step)
        return low, min(low + step, capacity)
    if roll < 0.8:
        edge = min(rng.choice(range(step, capacity + step, step)), capacity)
        low = max(0, edge - rng.randrange(1, step + 1))
        return low, min(capacity, edge + rng.randrange(0, step + 1))
    low = rng.randrange(0, capacity)
    return low, rng.randrange(low, capacity + 1)


@pytest.mark.parametrize("capacity,sizes,region_units", STORE_CASES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_store_matches_reference(capacity, sizes, region_units, seed):
    """The two find-and-take methods production calls, against the oracle.

    Exact runs of 1–8 blocks and splits through random windows, with
    releases of random held blocks between them; return values, free
    units and snapshots must agree after every step.
    """
    rng = random.Random(seed)
    new = LadderFreeStore(capacity, sizes, region_units=region_units)
    ref = ReferenceLadderFreeStore(capacity, sizes)
    assert new.snapshot() == ref.snapshot()
    held: list[tuple[int, int]] = []
    for step in range(1_500):
        size = rng.choice(sizes)
        if rng.random() < 0.55 or not held:
            low, high = _window(rng, capacity, region_units)
            # The policy prefers the end of a file's last block.
            prefer = rng.choice([None, rng.randrange(0, capacity), low])
            if held and rng.random() < 0.5:
                address, held_size = rng.choice(held)
                prefer = address + held_size
            if rng.random() < 0.6:
                max_blocks = rng.randint(1, 8)
                run = new.take_run_in_region(size, low, high, prefer, max_blocks)
                assert run == ref.take_run_in_region(
                    size, low, high, prefer, max_blocks
                )
                if run is not None:
                    start, count = run
                    held.extend((start + i * size, size) for i in range(count))
            else:
                address = new.take_split_in_region(size, low, high, prefer)
                assert address == ref.take_split_in_region(size, low, high, prefer)
                if address is not None:
                    held.append((address, size))
        else:
            address, size = held.pop(rng.randrange(len(held)))
            new.release(address, size)
            ref.release(address, size)
        assert new.free_units == ref.free_units
        assert new.snapshot() == ref.snapshot()
        if step % 50 == 0:
            new.check_invariants()
            ref.check_invariants()
    new.check_invariants()
    ref.check_invariants()


def test_store_rejects_double_free_like_reference():
    new = LadderFreeStore(4096, (1, 8, 64))
    ref = ReferenceLadderFreeStore(4096, (1, 8, 64))
    for store in (new, ref):
        assert store.take_split_in_region(8, 0, 4096) == 0
    for store in (new, ref):
        store.release(0, 8)
    messages = []
    for store in (new, ref):
        with pytest.raises(Exception) as excinfo:
            store.release(0, 8)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]
    assert "double free" in messages[0]


# Capacities a power of two, one off either side of one, and neither
# (two, three and many segments in the reference cover).
BUDDY_CAPACITIES = [96, 1000, 1023, 1024, 1025, 4097]


@pytest.mark.parametrize("capacity", BUDDY_CAPACITIES)
@pytest.mark.parametrize("seed", [1, 2])
def test_buddy_store_matches_reference(capacity, seed):
    """The binary buddy's ladder store against Koch's per-order lists.

    Exact takes, splits and releases in random order, through the same
    store calls the allocator makes; addresses and ``free_by_order``
    snapshots must agree after every step.
    """
    rng = random.Random(seed)
    allocator = BinaryBuddyAllocator(capacity)
    store = allocator.store
    ref = ReferenceBuddyStore(capacity)
    assert store.max_size == 1 << ref.max_order

    def free_by_order():
        return allocator.snapshot_free_state()["free_by_order"]

    assert free_by_order() == ref.free_by_order()
    held: list[tuple[int, int]] = []  # (address, order)
    for step in range(1_200):
        roll = rng.random()
        # Small orders dominate, as in a file system; large ones still
        # come often enough to drain the top of the ladder.
        order = min(int(rng.expovariate(0.5)), ref.max_order)
        if roll < 0.3:
            run = store.take_run_in_region(1 << order, 0, capacity, None, 1)
            address = None if run is None else run[0]
            assert address == ref.take_exact(order)
        elif roll < 0.6 or not held:
            address = store.take_split_in_region(1 << order, 0, capacity)
            assert address == ref.take_split(order)
        else:
            address = None
            released, order = held.pop(rng.randrange(len(held)))
            store.release(released, 1 << order)
            ref.release(released, order)
        if address is not None:
            held.append((address, order))
        assert store.free_units == ref.free_units
        assert free_by_order() == ref.free_by_order()
        if step % 50 == 0:
            store.check_invariants()
    for address, order in held:
        store.release(address, 1 << order)
        ref.release(address, order)
    assert free_by_order() == ref.free_by_order()
    assert store.free_units == capacity
    store.check_invariants()


# ---------------------------------------------------------------------------
# Layer 2: restricted allocator, production store vs reference store
# ---------------------------------------------------------------------------


def _paired_allocators(capacity, sizes, region_units, clustered=True):
    config = RestrictedBuddyConfig(
        block_sizes_units=sizes,
        clustered=clustered,
        region_units=region_units,
    )
    production = RestrictedBuddyAllocator(capacity, config, RandomStream(7))
    shadow = RestrictedBuddyAllocator(capacity, config, RandomStream(7))
    shadow.store = ReferenceLadderFreeStore(capacity, sizes)
    return production, shadow


def _outcome(operation):
    """Run an allocator op; normalize disk-full failures for comparison."""
    try:
        return operation()
    except DiskFullError as error:
        return ("disk-full", error.requested_units, error.free_units)


@pytest.mark.parametrize("clustered", [True, False])
@pytest.mark.parametrize("seed", [11, 1991])
def test_restricted_allocator_matches_reference_store(clustered, seed):
    rng = random.Random(seed)
    production, shadow = _paired_allocators(
        50_000, (1, 8, 64, 512), region_units=8_192, clustered=clustered
    )
    live: list[tuple] = []  # (production handle, shadow handle)
    for step in range(600):
        roll = rng.random()
        if roll < 0.35 or not live:
            # Both sides must run every op — a failed create/extend still
            # moves internal cursors, so skipping the shadow would diverge.
            out_a = _outcome(production.create)
            out_b = _outcome(shadow.create)
            if isinstance(out_a, tuple):
                assert out_a == out_b
            else:
                live.append((out_a, out_b))
        elif roll < 0.80:
            pair = rng.choice(live)
            units = rng.randrange(1, 200)
            out_a = _outcome(lambda: production.extend(pair[0], units))
            out_b = _outcome(lambda: shadow.extend(pair[1], units))
            assert out_a == out_b
        elif roll < 0.90:
            pair = rng.choice(live)
            units = rng.randrange(0, 300)
            assert production.truncate(pair[0], units) == shadow.truncate(
                pair[1], units
            )
        else:
            pair = live.pop(rng.randrange(len(live)))
            production.delete(pair[0])
            shadow.delete(pair[1])
        assert production.snapshot_free_state() == shadow.snapshot_free_state()
        if step % 40 == 0:
            production.audit_check()
            shadow.audit_check()
    assert production.snapshot_free_state() == shadow.snapshot_free_state()


# ---------------------------------------------------------------------------
# Layer 3: all five policies, per-unit ownership model + audit every step
# ---------------------------------------------------------------------------

POLICIES = [
    BuddyPolicy(),
    RestrictedPolicy(block_sizes=("1K", "8K", "64K"), region_size="512K"),
    ExtentPolicy(range_means=("16K", "64K")),
    FixedPolicy(),
    LogStructuredPolicy(),
]


def _owned_units(handle):
    units = set()
    for extent in handle.extents:
        units.update(range(extent.start, extent.end))
    if handle.descriptor is not None:
        units.update(range(handle.descriptor.start, handle.descriptor.end))
    return units


@pytest.mark.parametrize("policy", POLICIES, ids=[p.label for p in POLICIES])
@pytest.mark.parametrize("seed", [5, 23])
def test_policy_churn_against_unit_model(policy, seed):
    rng = random.Random(seed)
    allocator = policy.build(20_000, 1024, RandomStream(seed))
    model: dict[int, set[int]] = {}  # file_id -> owned units
    live = []
    for step in range(400):
        roll = rng.random()
        try:
            if roll < 0.35 or not live:
                handle = allocator.create(size_hint_units=rng.randrange(1, 64))
                live.append(handle)
            elif roll < 0.80:
                handle = rng.choice(live)
                allocator.extend(handle, rng.randrange(1, 120))
            elif roll < 0.90:
                handle = rng.choice(live)
                allocator.truncate(handle, rng.randrange(0, 200))
            else:
                handle = live.pop(rng.randrange(len(live)))
                allocator.delete(handle)
                model.pop(handle.file_id, None)
        except DiskFullError:
            pass
        # Rebuild the model from live handles and check pairwise
        # disjointness + accounting against it.
        model = {h.file_id: _owned_units(h) for h in live if not h.deleted}
        claimed: set[int] = set()
        total = 0
        for units in model.values():
            assert not units & claimed, "two files own the same unit"
            claimed |= units
            total += len(units)
        assert total == allocator.allocated_units
        assert allocator.free_units == allocator.capacity_units - total
        allocator.audit_check()
    allocator.audit_check()

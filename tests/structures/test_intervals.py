"""Unit + property tests for the coalescing free-extent map."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.structures.intervals import FreeExtentMap


def is_free(fmap, start, length):
    """True when ``[start, start+length)`` lies inside one free interval."""
    return any(
        low <= start and start + length <= low + size
        for low, size in fmap.intervals()
    )


def take_at(fmap, start, length):
    """Allocate exactly ``[start, start+length)`` if it is free."""
    if not is_free(fmap, start, length):
        return False
    assert fmap.take_up_to_from(start, length) == (start, length)
    return True


class TestAllocation:
    def test_initially_one_interval(self):
        fmap = FreeExtentMap(100)
        assert list(fmap.intervals()) == [(0, 100)]
        assert fmap.free_units == 100

    def test_first_fit_takes_lowest(self):
        fmap = FreeExtentMap(100)
        assert fmap.take_first_fit(10, 1) == [0]
        assert fmap.take_first_fit(10, 1) == [10]

    def test_first_fit_skips_small_holes(self):
        fmap = FreeExtentMap(100)
        take_at(fmap, 0, 100)
        fmap.release(0, 5)       # small hole at 0
        fmap.release(20, 50)     # big hole at 20
        assert fmap.take_first_fit(10, 1) == [20]

    def test_best_fit_takes_smallest_adequate(self):
        fmap = FreeExtentMap(100)
        take_at(fmap, 0, 100)
        fmap.release(0, 30)
        fmap.release(50, 12)
        assert fmap.take_best_fit(10) == 50
        fmap.check_invariants()

    def test_best_fit_tie_lowest_address(self):
        fmap = FreeExtentMap(100)
        take_at(fmap, 0, 100)
        fmap.release(60, 10)
        fmap.release(20, 10)
        assert fmap.take_best_fit(10) == 20

    def test_allocation_failure_returns_none(self):
        fmap = FreeExtentMap(10)
        assert fmap.take_first_fit(11, 1) is None
        assert fmap.take_best_fit(11) is None

    def test_take_at_exact(self):
        fmap = FreeExtentMap(100)
        assert take_at(fmap, 40, 20)
        assert not is_free(fmap, 40, 1)
        assert is_free(fmap, 39, 1)
        assert is_free(fmap, 60, 1)
        fmap.check_invariants()

    def test_take_at_occupied_fails(self):
        fmap = FreeExtentMap(100)
        take_at(fmap, 40, 20)
        assert not take_at(fmap, 45, 5)

    def test_non_positive_requests_raise(self):
        fmap = FreeExtentMap(10)
        with pytest.raises(SimulationError):
            fmap.take_first_fit(0, 1)
        with pytest.raises(SimulationError):
            fmap.take_first_fit(1, 0)
        with pytest.raises(SimulationError):
            fmap.take_best_fit(-1)


class TestRelease:
    def test_release_coalesces_both_sides(self):
        fmap = FreeExtentMap(100)
        take_at(fmap, 0, 100)
        fmap.release(0, 10)
        fmap.release(20, 10)
        fmap.release(10, 10)  # bridges the two
        assert list(fmap.intervals()) == [(0, 30)]
        fmap.check_invariants()

    def test_release_everything_restores_full(self):
        fmap = FreeExtentMap(100)
        starts = fmap.take_first_fit(10, 10)
        assert starts == list(range(0, 100, 10))
        for start in reversed(starts):
            fmap.release(start, 10)
        assert list(fmap.intervals()) == [(0, 100)]

    def test_double_free_raises(self):
        fmap = FreeExtentMap(100)
        take_at(fmap, 10, 10)
        fmap.release(10, 10)
        with pytest.raises(SimulationError):
            fmap.release(10, 10)

    def test_overlapping_free_raises(self):
        fmap = FreeExtentMap(100)
        take_at(fmap, 10, 20)
        fmap.release(10, 10)
        with pytest.raises(SimulationError):
            fmap.release(15, 10)

    def test_release_outside_capacity_raises(self):
        fmap = FreeExtentMap(100)
        with pytest.raises(SimulationError):
            fmap.release(95, 10)


@st.composite
def alloc_free_script(draw):
    """A random, always-valid sequence of first/best-fit allocs and frees."""
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["first", "best", "free"]),
                st.integers(min_value=1, max_value=40),
            ),
            max_size=60,
        )
    )


@given(script=alloc_free_script())
@settings(max_examples=120)
def test_property_invariants_hold_through_any_script(script):
    fmap = FreeExtentMap(500)
    live: list[tuple[int, int]] = []
    for action, size in script:
        if action == "free" and live:
            start, length = live.pop(len(live) // 2)
            fmap.release(start, length)
        elif action in ("first", "best"):
            if action == "first":
                found = fmap.take_first_fit(size, 1)
                start = found[0] if found else None
            else:
                start = fmap.take_best_fit(size)
            if start is not None:
                live.append((start, size))
        fmap.check_invariants()
    # Conservation: free + live allocations == capacity.
    assert fmap.free_units + sum(length for _, length in live) == 500
    # No two live allocations overlap.
    live.sort()
    for (a_start, a_len), (b_start, _) in zip(live, live[1:]):
        assert a_start + a_len <= b_start


class TestTakeUpToFrom:
    """The log-head allocation primitive used by the LFS extension."""

    def test_takes_from_position_inside_interval(self):
        fmap = FreeExtentMap(100)
        start, taken = fmap.take_up_to_from(40, 10)
        assert (start, taken) == (40, 10)
        assert is_free(fmap, 0, 40)
        assert not is_free(fmap, 40, 10)

    def test_clamps_to_interval_end(self):
        fmap = FreeExtentMap(100)
        take_at(fmap, 50, 50)
        start, taken = fmap.take_up_to_from(45, 20)
        assert (start, taken) == (45, 5)  # only 5 free before the wall

    def test_skips_to_next_interval(self):
        fmap = FreeExtentMap(100)
        take_at(fmap, 10, 20)  # hole-free zone 10..30 allocated
        start, taken = fmap.take_up_to_from(10, 5)
        assert start == 30

    def test_wraps_to_zero(self):
        fmap = FreeExtentMap(100)
        take_at(fmap, 50, 50)
        start, taken = fmap.take_up_to_from(80, 10)
        assert start == 0  # nothing at/after 80: wrap

    def test_none_when_nothing_free(self):
        fmap = FreeExtentMap(10)
        take_at(fmap, 0, 10)
        assert fmap.take_up_to_from(0, 1) is None

    def test_invalid_length_raises(self):
        with pytest.raises(SimulationError):
            FreeExtentMap(10).take_up_to_from(0, 0)

    def test_invariants_after_partial_takes(self):
        fmap = FreeExtentMap(200)
        position = 0
        for _ in range(20):
            piece = fmap.take_up_to_from(position, 7)
            if piece is None:
                break
            position = piece[0] + piece[1]
            fmap.check_invariants()


# -- batched first fit and in-place carves -----------------------------------

CAPACITY = 400


@st.composite
def free_layouts(draw):
    """Cut points over ``[0, CAPACITY)`` plus which segments start free."""
    cuts = sorted(set(draw(st.lists(
        st.integers(min_value=1, max_value=CAPACITY - 1), max_size=30
    ))))
    bounds = [0, *cuts, CAPACITY]
    free = draw(st.lists(
        st.booleans(), min_size=len(bounds) - 1, max_size=len(bounds) - 1
    ))
    return [
        (low, high - low)
        for low, high, is_free in zip(bounds, bounds[1:], free) if is_free
    ]


def build(layout) -> FreeExtentMap:
    fmap = FreeExtentMap(CAPACITY)
    take_at(fmap, 0, CAPACITY)
    for start, length in layout:
        fmap.release(start, length)
    return fmap


def size_index(fmap: FreeExtentMap) -> list[tuple[int, int]]:
    return list(fmap._by_size)


@given(
    layout=free_layouts(),
    length=st.integers(min_value=1, max_value=40),
    count=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=300, deadline=None)
def test_batched_first_fit_matches_single_takes(layout, length, count):
    batched, single = build(layout), build(layout)
    starts = batched.take_first_fit(length, count)
    expected = []
    for _ in range(count):
        # Independent oracle: the lowest-addressed interval that fits.
        fits = [start for start, size in single.intervals() if size >= length]
        taken = single.take_first_fit(length, 1)
        single.check_invariants()
        if not fits:
            assert taken is None
            expected = None
            break
        assert taken == [fits[0]]
        expected.extend(taken)
    batched.check_invariants()
    if expected is None:
        # A shortage hands everything back: the map is as it was.
        assert starts is None
        untouched = build(layout)
        assert list(batched.intervals()) == list(untouched.intervals())
        assert size_index(batched) == size_index(untouched)
        assert batched.free_units == untouched.free_units
    else:
        assert starts == expected
        assert list(batched.intervals()) == list(single.intervals())
        assert size_index(batched) == size_index(single)
        assert batched.free_units == single.free_units


def test_batched_first_fit_spans_intervals():
    fmap = build([(0, 25), (40, 7), (60, 100)])
    # 0..20 from the first hole (5 left over, too small), nothing from
    # the 7-unit hole, the rest from the front of the third.
    assert fmap.take_first_fit(10, 4) == [0, 10, 60, 70]
    assert list(fmap.intervals()) == [(20, 5), (40, 7), (80, 80)]
    fmap.check_invariants()


def test_batched_first_fit_consumes_exact_holes():
    fmap = build([(0, 20), (30, 10), (50, 10)])
    assert fmap.take_first_fit(10, 4) == [0, 10, 30, 50]
    assert list(fmap.intervals()) == []
    fmap.check_invariants()


def test_batched_first_fit_shortage_restores_map():
    fmap = build([(0, 25), (40, 7), (60, 30)])
    before = list(fmap.intervals())
    assert fmap.take_first_fit(10, 6) is None
    assert list(fmap.intervals()) == before
    fmap.check_invariants()


@given(script=st.lists(
    st.tuples(
        st.sampled_from(["first", "best", "head", "from", "at", "free"]),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=CAPACITY - 1),
    ),
    max_size=60,
))
@settings(max_examples=200, deadline=None)
def test_invariants_hold_after_every_carve(script):
    """Front carves (first fit, best fit, a log head at an interval's
    start) and middle/back carves keep all three indexes in step."""
    fmap = FreeExtentMap(CAPACITY)
    live: list[tuple[int, int]] = []
    for action, size, position in script:
        if action == "first":
            starts = fmap.take_first_fit(size, 1 + position % 4)
            live.extend((start, size) for start in starts or ())
        elif action == "best":
            start = fmap.take_best_fit(size)
            if start is not None:
                live.append((start, size))
        elif action == "head":
            holes = list(fmap.intervals())
            if holes:
                hole_start = holes[position % len(holes)][0]
                start, taken = fmap.take_up_to_from(hole_start, size)
                assert start == hole_start
                live.append((start, taken))
        elif action == "from":
            piece = fmap.take_up_to_from(position, size)
            if piece is not None:
                live.append(piece)
        elif action == "at":
            if take_at(fmap, position, min(size, CAPACITY - position)):
                live.append((position, min(size, CAPACITY - position)))
        elif live:
            fmap.release(*live.pop(position % len(live)))
        fmap.check_invariants()
    assert fmap.free_units + sum(length for _, length in live) == CAPACITY

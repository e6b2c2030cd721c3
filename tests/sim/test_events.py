"""Unit tests for the event queues, driven through the engine's own
scheduling, cancellation and run paths."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.events import COMPACTION_MIN_GARBAGE, EventHeap


def make_callback(log, tag):
    def callback(sim):
        log.append((tag, sim.now))

    return callback


class TestEventHeap:
    def test_pop_orders_by_time(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, make_callback(log, "b"))
        sim.schedule(1.0, make_callback(log, "a"))
        sim.schedule(9.0, make_callback(log, "c"))
        sim.run()
        assert log == [("a", 1.0), ("b", 5.0), ("c", 9.0)]

    def test_ties_break_fifo(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, make_callback(log, "first"))
        sim.schedule(3.0, make_callback(log, "second"))
        sim.run()
        assert log == [("first", 3.0), ("second", 3.0)]

    def test_len_counts_live_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda s: None)
        event = sim.schedule(2.0, lambda s: None)
        assert sim.pending_events == 2
        sim.cancel(event)
        assert sim.pending_events == 1
        sim.cancel(event)  # cancelling twice counts once
        assert sim.pending_events == 1

    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        log = []
        first = sim.schedule(1.0, make_callback(log, "first"))
        sim.schedule(2.0, make_callback(log, "second"))
        sim.cancel(first)
        sim.run()
        assert log == [("second", 2.0)]

    def test_run_on_empty_queue_fires_nothing(self):
        sim = Simulator()
        sim.run()
        assert (sim.events_executed, sim.now) == (0, 0.0)
        sim.run(until=5.0)
        assert (sim.events_executed, sim.now) == (0, 5.0)

    def test_run_until_skips_cancelled_head(self):
        sim = Simulator()
        log = []
        first = sim.schedule(1.0, make_callback(log, "first"))
        sim.schedule(4.0, make_callback(log, "second"))
        sim.cancel(first)
        sim.run(until=3.0)
        assert (log, sim.now) == ([], 3.0)
        sim.run()
        assert log == [("second", 4.0)]

    def test_cancel_bookkeeping_underflow_raises(self):
        heap = EventHeap()
        event = heap.push(1.0, lambda sim: None)
        heap.note_cancelled(event)
        with pytest.raises(SimulationError):
            heap.note_cancelled(event)


class TestLazyCompaction:
    def test_cancel_heavy_workload_triggers_compaction(self):
        sim = Simulator()
        events = [sim.schedule(float(i % 17) + 1, lambda s: None) for i in range(400)]
        survivors = []
        for index, event in enumerate(events):
            if index % 8 == 0:
                survivors.append(event)
            else:
                sim.cancel(event)
        assert sim.compactions >= 1
        assert sim.pending_events == len(survivors)
        # The physical heap has actually shed its garbage.
        assert len(sim._heap._heap) < COMPACTION_MIN_GARBAGE + len(survivors)

    def test_compaction_preserves_pop_order(self):
        sim = Simulator()
        fired = []
        events = [
            sim.schedule(float(i % 13) + 1, lambda s, i=i: fired.append(i))
            for i in range(300)
        ]
        expected = []
        for index, event in enumerate(events):
            if index % 10 == 3:
                expected.append(index)
            else:
                sim.cancel(event)
        assert sim.compactions >= 1
        sim.run()
        # Time order, ties in scheduling order.
        assert fired == sorted(expected, key=lambda i: (i % 13, i))
        assert sim.pending_events == 0

    def test_immediate_cancellations_are_not_heap_garbage(self):
        sim = Simulator()
        for _ in range(5 * COMPACTION_MIN_GARBAGE):
            sim.cancel(sim.schedule(0.0, lambda s: None))
        assert sim.compactions == 0
        assert sim.pending_events == 0

    def test_below_threshold_never_compacts(self):
        sim = Simulator()
        events = [
            sim.schedule(float(i) + 1, lambda s: None)
            for i in range(COMPACTION_MIN_GARBAGE)
        ]
        for event in events[:-1]:
            sim.cancel(event)
        assert sim.compactions == 0

    def test_simulator_exposes_compaction_counter(self):
        sim = Simulator()
        fired = []
        keep = []
        for i in range(400):
            event = sim.schedule(float(i % 29), lambda s, i=i: fired.append(i))
            if i % 9 == 0:
                keep.append(i)
            else:
                sim.cancel(event)
        assert sim.compactions >= 1
        sim.run()
        assert sorted(fired) == keep

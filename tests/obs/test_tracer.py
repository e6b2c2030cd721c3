"""Unit tests for the span tracer (repro.obs.tracer)."""

import pytest

from repro.obs.tracer import (
    TID_DRIVE_BASE,
    TID_FS,
    TID_WORKLOAD,
    Span,
    Tracer,
    drive_lane,
)
from repro.disk.array import StripedArray
from repro.disk.geometry import TINY_DISK
from repro.fault import DiskFailure, FaultInjector, FaultSpec
from repro.sim.engine import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestSpanLifecycle:
    def test_begin_assigns_sequential_ids(self, sim):
        tracer = Tracer(sim)
        first = tracer.begin("a", "cat", 0, TID_WORKLOAD)
        second = tracer.begin("b", "cat", first.span_id, TID_FS)
        assert (first.span_id, second.span_id) == (1, 2)
        assert second.parent_id == first.span_id

    def test_end_stamps_current_time(self, sim):
        tracer = Tracer(sim)
        span = tracer.begin("op", "workload", 0, TID_WORKLOAD)
        sim.schedule(5.0, lambda _sim: tracer.end(span))
        sim.run()
        assert span.start_ms == 0.0
        assert span.end_ms == 5.0

    def test_complete_records_past_interval(self, sim):
        tracer = Tracer(sim)
        span = tracer.complete(
            "disk.service", "disk", 0, drive_lane(2), 3.0, 7.5, {"bytes": 8192}
        )
        assert (span.start_ms, span.end_ms) == (3.0, 7.5)
        assert span.args == {"bytes": 8192}

    def test_context_defaults_to_root(self, sim):
        assert Tracer(sim).context == 0


class TestFreeze:
    def test_freeze_produces_plain_tuples(self, sim):
        tracer = Tracer(sim)
        span = tracer.begin("op", "workload", 0, TID_WORKLOAD, {"n": 1})
        tracer.end(span)
        data = tracer.freeze()
        assert data.spans == [
            (1, 0, "op", "workload", TID_WORKLOAD, 0.0, 0.0, {"n": 1})
        ]
        assert data.span_count == 1
        assert data.frozen_at_ms == 0.0

    def test_freeze_truncates_open_spans(self, sim):
        tracer = Tracer(sim)
        tracer.begin("op", "workload", 0, TID_WORKLOAD)
        sim.schedule(4.0, lambda _sim: None)
        sim.run()
        data = tracer.freeze()
        (_, _, _, _, _, start, end, args) = data.spans[0]
        assert (start, end) == (0.0, 4.0)
        assert args == {"truncated": True}

    def test_freeze_never_extends_before_start(self, sim):
        tracer = Tracer(sim)
        # An open span "started" ahead of now=0 must not get a negative
        # duration when truncated.
        tracer.spans.append(Span(9, 0, "late", "c", 1, 10.0))
        (_, _, _, _, _, start, end, _) = tracer.freeze().spans[0]
        assert (start, end) == (10.0, 10.0)

    def test_default_lanes_are_named(self, sim):
        data = Tracer(sim).freeze()
        assert data.lanes[TID_WORKLOAD] == "workload"
        assert data.lanes[TID_FS] == "filesystem"

    def test_name_lane(self, sim):
        tracer = Tracer(sim)
        tracer.name_lane(drive_lane(0), "drive 0 (wren-iv)")
        assert tracer.freeze().lanes[TID_DRIVE_BASE] == "drive 0 (wren-iv)"


class TestFaultInstants:
    @staticmethod
    def fail_drive_3_at_2ms(sim):
        array = StripedArray(sim, TINY_DISK, 4, 8192, 4096)
        FaultInjector(sim, array, FaultSpec(failures=(DiskFailure(2.0, 3),)))
        sim.run()

    def test_fault_events_become_instants(self, sim):
        tracer = sim.tracer = Tracer(sim)
        self.fail_drive_3_at_2ms(sim)
        assert tracer.freeze().instants == [
            ("disk-failure", "fault", drive_lane(3), 2.0, None)
        ]

    def test_unsubscribed_tracer_records_nothing(self, sim):
        tracer = Tracer(sim)  # never attached as sim.tracer
        self.fail_drive_3_at_2ms(sim)
        assert tracer.instants == []


def test_drive_lane_is_injective_and_offset():
    lanes = [drive_lane(i) for i in range(8)]
    assert lanes == sorted(set(lanes))
    assert lanes[0] == TID_DRIVE_BASE
    assert TID_WORKLOAD not in lanes
    assert TID_FS not in lanes

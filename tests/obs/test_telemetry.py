"""Telemetry tests: emitter hook, progress frames, stderr renderer."""

import io

import pytest

from repro.core.configs import ExperimentConfig, ExtentPolicy, SystemConfig
from repro.core.experiments import run_performance_experiment
from repro.obs.telemetry import (
    SweepTelemetry,
    emit,
    install_emitter,
    progress_frame,
    telemetry_enabled,
    uninstall_emitter,
)


@pytest.fixture(autouse=True)
def clean_emitter():
    uninstall_emitter()
    yield
    uninstall_emitter()


class TestEmitterHook:
    def test_emit_is_noop_without_emitter(self):
        assert not telemetry_enabled()
        emit({"stage": "x"})  # must not raise

    def test_installed_emitter_receives_frames(self):
        seen = []
        install_emitter(seen.append)
        assert telemetry_enabled()
        emit({"stage": "measure"})
        assert seen == [{"stage": "measure"}]

    def test_uninstall_stops_delivery(self):
        seen = []
        install_emitter(seen.append)
        uninstall_emitter()
        emit({"stage": "measure"})
        assert seen == []
        assert not telemetry_enabled()

    def test_emitter_exceptions_propagate(self):
        def broken(frame):
            raise BrokenPipeError("parent gone")

        install_emitter(broken)
        with pytest.raises(BrokenPipeError):
            emit({"stage": "measure"})


class TestProgressFrame:
    def test_minimal_frame(self):
        assert progress_frame("warmup", 10.0) == {
            "stage": "warmup",
            "sim_ms": 10.0,
        }

    def test_optional_fields_and_extras(self):
        frame = progress_frame(
            "application", 500.0, cap_ms=1000.0, events=42, operations=7
        )
        assert frame == {
            "stage": "application",
            "sim_ms": 500.0,
            "cap_ms": 1000.0,
            "events": 42,
            "operations": 7,
        }


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSweepTelemetry:
    def make(self, min_interval_s=0.0):
        stream = io.StringIO()
        clock = FakeClock()
        view = SweepTelemetry(stream, min_interval_s=min_interval_s, clock=clock)
        return view, stream, clock

    def test_idle_line(self):
        view, _, _ = self.make()
        assert view.render_line() == "telemetry: idle"

    def test_frame_renders_stage_and_percent(self):
        view, stream, clock = self.make()
        clock.now = 1.0
        view.on_frame(3, progress_frame("application", 250.0, cap_ms=1000.0))
        line = view.render_line()
        assert "t3 application 25%" in line
        assert stream.getvalue().count("telemetry:") == 1

    def test_frame_without_cap_shows_sim_seconds(self):
        view, _, _ = self.make()
        view.on_frame(0, progress_frame("populate", 1500.0))
        assert "t0 populate 1.5s sim" in view.render_line()

    def test_operations_rendered_with_thousands_separator(self):
        view, _, _ = self.make()
        view.on_frame(
            0, progress_frame("allocation", 0.0, operations=65536)
        )
        assert "65,536 ops" in view.render_line()

    def test_point_done_clears_in_flight_frame(self):
        view, _, _ = self.make()
        view.on_frame(2, progress_frame("application", 100.0, cap_ms=200.0))
        view.note_point_done(1, 4, index=2)
        line = view.render_line()
        assert "1/4 done" in line
        assert "t2" not in line

    def test_eta_combines_done_points_and_in_flight_fractions(self):
        view, _, clock = self.make()
        view.note_point_done(1, 4)
        view.on_frame(0, progress_frame("application", 500.0, cap_ms=1000.0))
        clock.now = 30.0
        # 1.5 of 4 points in 30 s -> 2.5 remaining ~ 50 s.
        assert view.eta_seconds() == pytest.approx(50.0)

    def test_eta_none_before_any_progress(self):
        view, _, clock = self.make()
        clock.now = 5.0
        assert view.eta_seconds() is None
        view.note_point_done(0, 4)
        assert view.eta_seconds() is None

    def test_rendering_is_wall_clock_throttled(self):
        view, stream, clock = self.make(min_interval_s=1.0)
        clock.now = 1.0
        view.on_frame(0, progress_frame("a", 1.0))
        view.on_frame(0, progress_frame("a", 2.0))
        assert stream.getvalue().count("telemetry:") == 1
        clock.now = 2.5
        view.on_frame(0, progress_frame("a", 3.0))
        assert stream.getvalue().count("telemetry:") == 2

    def test_frames_seen_counts_every_frame(self):
        view, _, _ = self.make(min_interval_s=100.0)
        for i in range(5):
            view.on_frame(0, progress_frame("a", float(i)))
        assert view.frames_seen == 5


class TestPhaseFrames:
    def test_events_advance_within_each_phase(self):
        frames = []
        install_emitter(frames.append)
        config = ExperimentConfig(
            policy=ExtentPolicy(),
            workload="SC",
            system=SystemConfig(scale=0.05),
            seed=1991,
        )
        run_performance_experiment(config, app_cap_ms=60_000.0, seq_cap_ms=60_000.0)
        for stage in ("application", "sequential"):
            counts = [f["events"] for f in frames if f["stage"] == stage]
            assert len(counts) >= 3
            assert all(a < b for a, b in zip(counts, counts[1:])), counts

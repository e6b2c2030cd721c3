"""Telemetry frames over the supervision pipes: delivery, interleaving
with results, and robustness when a worker dies mid-stream."""

import os
import signal

from repro.core.runner import ExperimentRunner
from repro.obs.telemetry import emit, progress_frame
from tests.core.test_supervision import run_supervised, tiny_task


# -- picklable work functions for the spawn workers -------------------------


def emits_then_returns(x):
    """Stream a few frames, then finish normally."""
    for step in range(3):
        emit(progress_frame("stage", float(step), cap_ms=2.0, task=x))
    return ("ok", x * 10, 0.0)


def emits_then_dies(_):
    """Stream a frame, then die abruptly (SIGKILL, no cleanup)."""
    emit(progress_frame("doomed", 1.0))
    os.kill(os.getpid(), signal.SIGKILL)


def silent(x):
    return ("ok", x, 0.0)


class TestPoolTelemetry:
    def test_frames_are_routed_with_task_index(self):
        frames = []
        out, _ = run_supervised(
            emits_then_returns,
            [(0, 0), (1, 1)],
            2,
            telemetry=lambda index, frame: frames.append((index, frame)),
        )
        assert [(i, status) for i, _, (status, _, _) in sorted(out)] == [
            (0, "ok"),
            (1, "ok"),
        ]
        # Every frame arrives tagged with the emitting task's index.
        assert len(frames) == 6
        for index, frame in frames:
            assert frame["task"] == index
            assert frame["stage"] == "stage"

    def test_frames_dropped_silently_without_callback(self):
        out, _ = run_supervised(emits_then_returns, [(0, 5)], 1)
        assert out[0][2] == ("ok", 50, 0.0)

    def test_worker_killed_after_emitting_is_still_a_clean_crash(self):
        frames = []
        [(index, _, (status, message, _))], counters = run_supervised(
            emits_then_dies,
            [(0, None)],
            1,
            telemetry=lambda index, frame: frames.append((index, frame)),
        )
        assert (index, status) == (0, "error")
        assert "died" in message
        # The frame sent before the kill may or may not have been drained
        # before the pipe broke; what matters is no exception and a
        # structured error (not a hang or a lost task).
        assert all(frame["stage"] == "doomed" for _, frame in frames)
        assert counters["core.crashes"] == 1

    def test_mixed_telemetry_and_silent_tasks(self):
        frames = []
        out, _ = run_supervised(
            silent,
            [(i, i) for i in range(4)],
            2,
            telemetry=lambda index, frame: frames.append((index, frame)),
        )
        assert len(out) == 4
        assert frames == []


class TestRunnerTelemetry:
    def test_inline_runner_delivers_frames_with_index(self):
        frames = []
        runner = ExperimentRunner(
            jobs=1,
            cache_dir=None,
            telemetry=lambda index, frame: frames.append((index, frame)),
        )
        outcomes = runner.run([tiny_task(seed=11)])
        assert outcomes[0].ok
        assert frames, "experiment phases should emit progress frames"
        assert {index for index, _ in frames} == {0}
        stages = {frame["stage"] for _, frame in frames}
        assert stages & {"populate", "warmup", "application", "sequential"}

    def test_inline_runner_uninstalls_emitter_after_each_task(self):
        from repro.obs.telemetry import telemetry_enabled

        runner = ExperimentRunner(
            jobs=1, cache_dir=None, telemetry=lambda index, frame: None
        )
        runner.run([tiny_task(seed=12)])
        assert not telemetry_enabled()

    def test_pooled_runner_delivers_frames(self):
        frames = []
        runner = ExperimentRunner(
            jobs=2,
            cache_dir=None,
            telemetry=lambda index, frame: frames.append((index, frame)),
        )
        outcomes = runner.run([tiny_task(seed=13), tiny_task(seed=14)])
        assert all(o.ok for o in outcomes)
        assert {index for index, _ in frames} <= {0, 1}
        assert frames, "pool workers should stream frames over their pipes"

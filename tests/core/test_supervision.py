"""Tests for hardened sweep execution: the supervised worker pool
(a WorkerCrew driven by a TaskScheduler), per-task timeouts, bounded
retries, resume from the result cache, and graceful interrupts."""

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass

import pytest

from repro.core.configs import ExperimentConfig, FixedPolicy, SystemConfig
from repro.core.pool import CREW_COUNTERS, TaskScheduler, WorkerCrew
from repro.core.runner import ExperimentRunner, ExperimentTask, ResultCache
from repro.errors import ConfigurationError, SweepInterrupted
from repro.obs.metrics import MetricsRegistry


# -- picklable work functions for the spawn workers -------------------------


def well_behaved(x):
    return ("ok", x * 2, 0.0)


def crash_once_then_succeed(flag_path):
    """SIGKILL ourselves on the first attempt; succeed on the retry."""
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as handle:
            handle.write("attempted")
        os.kill(os.getpid(), signal.SIGKILL)
    return ("ok", "recovered", 0.0)


def hang(_):
    time.sleep(300)


def always_raises(_):
    raise ValueError("deterministic divergence")


@dataclass(frozen=True)
class CrashOnceTask(ExperimentTask):
    """A sweep point whose worker SIGKILLs itself on the first attempt."""

    flag_path: str = ""

    def execute(self):
        if not os.path.exists(self.flag_path):
            with open(self.flag_path, "w") as handle:
                handle.write("attempted")
            os.kill(os.getpid(), signal.SIGKILL)
        return super().execute()


def tiny_task(seed=7):
    config = ExperimentConfig(
        policy=FixedPolicy(),
        workload="TS",
        system=SystemConfig(scale=0.02),
        seed=seed,
    )
    return ExperimentTask.performance(
        config, app_cap_ms=8_000.0, seq_cap_ms=4_000.0
    )


def run_supervised(
    work_fn, items, n_workers, timeout_s=None, retries=0, backoff_base_s=0.5,
    telemetry=None,
):
    """Drive ``(index, payload)`` items through a crew and scheduler until
    every one resolves; returns the outcomes and the supervision counters."""
    metrics = MetricsRegistry()
    for name in CREW_COUNTERS:
        metrics.incr(name, 0)
    crew = WorkerCrew(
        work_fn, timeout_s=timeout_s, telemetry=telemetry, metrics=metrics
    )
    scheduler = TaskScheduler(
        crew, retries=retries, backoff_base_s=backoff_base_s
    )
    for index, payload in items:
        scheduler.add(index, payload)
    outcomes = []
    try:
        crew.ensure_workers(min(n_workers, len(items)))
        while scheduler.outstanding:
            outcomes.extend(scheduler.step())
    finally:
        crew.shutdown()
    return outcomes, metrics.counters


class TestSupervisedPool:
    def test_results_come_back_for_every_item(self):
        out, _ = run_supervised(well_behaved, [(i, i) for i in range(5)], 2)
        out.sort()
        assert [(i, payload) for i, payload, _ in out] == [
            (i, i) for i in range(5)
        ]
        assert all(outcome == ("ok", i * 2, 0.0) for i, _, outcome in out)

    def test_crashed_worker_is_replaced_and_task_retried(self, tmp_path):
        [(index, _, (status, payload, _))], counters = run_supervised(
            crash_once_then_succeed,
            [(0, str(tmp_path / "flag"))],
            1,
            retries=1,
            backoff_base_s=0.05,
        )
        assert (index, status, payload) == (0, "ok", "recovered")
        assert counters["core.crashes"] == 1
        assert counters["core.retries"] == 1
        assert counters["core.workers_replaced"] == 1

    def test_crash_without_retries_is_reported_not_lost(self, tmp_path):
        [(index, _, (status, message, _))], _ = run_supervised(
            crash_once_then_succeed, [(0, str(tmp_path / "flag"))], 1
        )
        assert index == 0
        assert status == "error"
        assert "died" in message
        assert "retries exhausted" in message

    def test_timeout_kills_the_worker(self):
        [(index, _, (status, message, _))], counters = run_supervised(
            hang, [(0, "x")], 1, timeout_s=0.3
        )
        assert index == 0
        assert status == "error"
        assert "timeout" in message
        assert counters["core.timeouts"] == 1

    def test_task_exceptions_are_not_retried(self):
        [(_, _, (status, message, _))], counters = run_supervised(
            always_raises, [(0, "x")], 1, retries=3
        )
        assert status == "error"
        assert "deterministic divergence" in message
        assert counters["core.retries"] == 0

    def test_sibling_tasks_survive_a_crash(self, tmp_path):
        # One crashing task among well-behaved ones: everyone completes.
        flags = [str(tmp_path / f"flag{i}") for i in range(3)]
        out, _ = run_supervised(
            crash_once_then_succeed,
            list(enumerate(flags)),
            2,
            retries=1,
            backoff_base_s=0.05,
        )
        assert len(out) == 3
        assert all(outcome[0] == "ok" for _, _, outcome in out)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkerCrew(well_behaved, timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            TaskScheduler(WorkerCrew(well_behaved), retries=-1)


class TestResultCacheIntegrity:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("key", {"value": 41})
        assert cache.load("key") == {"value": 41}

    def test_corrupt_entry_is_a_miss_and_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path("bad").parent.mkdir(parents=True, exist_ok=True)
        cache.path("bad").write_bytes(b"garbage that is not an entry")
        assert cache.load("bad") is None
        assert not cache.path("bad").exists()

    def test_flipped_payload_byte_fails_checksum_and_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("key", {"value": 41})
        blob = bytearray(cache.path("key").read_bytes())
        blob[-1] ^= 0xFF
        cache.path("key").write_bytes(bytes(blob))
        assert cache.load("key") is None
        assert not cache.path("key").exists()

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("key", list(range(100)))
        blob = cache.path("key").read_bytes()
        cache.path("key").write_bytes(blob[: len(blob) // 2])
        assert cache.load("key") is None


class TestCheckpointResume:
    """The result cache is the sweep's resume record: rerunning an
    interrupted sweep against the same ``cache_dir`` replays, by key,
    exactly the points that finished."""

    def seeds(self):
        return (7, 8, 9)

    def sweep(self):
        return [tiny_task(seed) for seed in self.seeds()]

    def test_interrupt_flushes_and_raises_130_material(self, tmp_path):
        """Interrupting mid-sweep raises SweepInterrupted naming the
        result cache; completed points are already stored there."""

        def interrupt_after_first(outcome, completed, total):
            if completed == 1:
                raise KeyboardInterrupt

        runner = ExperimentRunner(
            jobs=1,
            cache_dir=tmp_path / "cache",
            progress=interrupt_after_first,
        )
        with pytest.raises(SweepInterrupted) as exc:
            runner.run(self.sweep())
        assert exc.value.completed == 1
        assert exc.value.total == 3
        assert str(tmp_path / "cache") in str(exc.value.partial_dir)
        assert "partial results flushed" in str(exc.value)
        cache = ResultCache(tmp_path / "cache")
        stored = [cache.load(task.cache_key) for task in self.sweep()]
        assert [result is not None for result in stored] == [True, False, False]

    def test_interrupt_without_a_cache_names_no_directory(self):
        def interrupt_after_first(outcome, completed, total):
            raise KeyboardInterrupt

        runner = ExperimentRunner(jobs=1, progress=interrupt_after_first)
        with pytest.raises(SweepInterrupted) as exc:
            runner.run(self.sweep()[:2])
        assert exc.value.partial_dir is None
        assert "flushed" not in str(exc.value)

    def test_resume_is_bit_identical_to_uninterrupted(self, tmp_path):
        reference = ExperimentRunner(jobs=1).results(self.sweep())

        def interrupt_after_first(outcome, completed, total):
            if completed == 1:
                raise KeyboardInterrupt

        interrupted = ExperimentRunner(
            jobs=1,
            cache_dir=tmp_path / "cache",
            progress=interrupt_after_first,
        )
        with pytest.raises(SweepInterrupted):
            interrupted.run(self.sweep())

        resumed = ExperimentRunner(jobs=1, cache_dir=tmp_path / "cache")
        results = resumed.results(self.sweep())
        assert results == reference
        # The point completed before the interrupt was replayed, not rerun.
        assert resumed.metrics.counters["core.cache_hits"] == 1
        assert resumed.metrics.counters["core.executed"] == 2

    def test_checkpoint_results_validate_on_read(self, tmp_path):
        sweep = self.sweep()[:2]
        first = ExperimentRunner(jobs=1, cache_dir=tmp_path).results(sweep)
        # Corrupt one stored result: the resume treats it as missing,
        # re-executes that point alone, and lands on the same answer.
        ResultCache(tmp_path).path(sweep[0].cache_key).write_bytes(b"junk")
        resumed = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        assert resumed.results(sweep) == first
        counters = resumed.metrics.counters
        assert (counters["core.executed"], counters["core.cache_hits"]) == (1, 1)
        assert counters["core.cache_evictions"] == 1

    def test_interrupted_pooled_sweep_reaps_every_worker(self, tmp_path):
        def interrupt_at_first(outcome, completed, total):
            raise KeyboardInterrupt

        runner = ExperimentRunner(
            jobs=2, cache_dir=tmp_path, progress=interrupt_at_first
        )
        with pytest.raises(SweepInterrupted) as exc:
            runner.run(self.sweep())
        assert exc.value.completed == 1
        assert multiprocessing.active_children() == []


class TestRunnerTimeout:
    def test_timeout_surfaces_as_structured_error(self):
        # 50ms of wall clock is never enough to simulate this point, so
        # the supervised pool kills the worker and reports a timeout.
        runner = ExperimentRunner(jobs=1, timeout_s=0.05)
        [outcome] = runner.run([tiny_task()])
        assert not outcome.ok
        assert "timeout" in outcome.error
        assert runner.metrics.counters["core.failed"] == 1

    def test_timeout_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentRunner(timeout_s=-1.0)
        with pytest.raises(ConfigurationError):
            ExperimentRunner(retries=-1)


class TestRunnerCounters:
    def test_pooled_crash_and_retry_are_counted(self, tmp_path):
        # A local pooled sweep counts its supervision events on the
        # runner's own registry.
        crashing = CrashOnceTask(
            "performance", tiny_task(1).config, tiny_task(1).kwargs,
            flag_path=str(tmp_path / "flag"),
        )
        runner = ExperimentRunner(jobs=2, retries=1, backoff_base_s=0.05)
        outcomes = runner.run([crashing, tiny_task(2)])
        assert all(outcome.ok for outcome in outcomes)
        counters = runner.metrics.counters
        assert counters["core.crashes"] == 1
        assert counters["core.retries"] == 1
        assert counters["core.executed"] == 2

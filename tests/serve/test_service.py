"""Tests for the service core: single-flight dedup, admission control,
crash recovery through the ledger, and bit-identical results."""

import json
import os
import statistics
import sys
import threading
import time

import pytest

from repro.errors import ConfigurationError, ServiceError, ServiceOverloaded
from repro.serve import ExperimentService, RunLedger, result_digest
from repro.serve.service import DONE, FAILED

from .helpers import (
    SERVICE_COUNTERS,
    drain_gated,
    scripted_work,
    spec_for,
    tiny_real_spec,
)


@pytest.fixture
def gate(tmp_path, monkeypatch):
    """A flag file that holds gated jobs (seeds 700-799) in flight."""
    path = tmp_path / "gate.flag"
    path.write_text("hold")
    monkeypatch.setenv("REPRO_TEST_GATE", str(path))
    return str(path)


def make_service(tmp_path, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("work_fn", scripted_work)
    kwargs.setdefault("retries", 1)
    kwargs.setdefault("backoff_base_s", 0.05)
    return ExperimentService(tmp_path / "state", **kwargs)


def wait_done(service, job, timeout_s=20.0):
    assert service.wait(job, timeout_s=timeout_s), f"{job.key} never finished"
    return job


class TestSingleFlight:
    def test_identical_concurrent_requests_cost_one_simulation(
        self, tmp_path, gate
    ):
        service = make_service(tmp_path)
        service.start()
        try:
            spec = spec_for(750)  # gated: stays in flight until released
            jobs, hows = [], []
            lock = threading.Lock()

            def submit():
                job, how = service.submit(spec)
                with lock:
                    jobs.append(job)
                    hows.append(how)

            threads = [threading.Thread(target=submit) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert len({job.key for job in jobs}) == 1
            assert sorted(hows) == ["deduped"] * 7 + ["queued"]
            drain_gated(service, gate)
            wait_done(service, jobs[0])
            assert service.metrics.counters["serve.executed"] == 1
            assert service.metrics.counters["serve.accepted"] == 1
            assert service.metrics.counters["serve.deduped"] == 7
        finally:
            service.stop()

    def test_finished_job_is_served_from_cache_not_rerun(self, tmp_path):
        service = make_service(tmp_path)
        service.start()
        try:
            job, how = service.submit(spec_for(5))
            assert how == "queued"
            wait_done(service, job)
            again, how2 = service.submit(spec_for(5))
            assert how2 == "done"
            assert again.state == DONE
            assert service.metrics.counters["serve.executed"] == 1
            assert service.metrics.counters["serve.cache_hits"] == 1
        finally:
            service.stop()


class TestAdmissionControl:
    def test_overload_sheds_with_retry_hint(self, tmp_path, gate):
        service = make_service(tmp_path, workers=1, max_queue=3)
        service.start()
        try:
            for seed in (700, 701, 702):
                service.submit(spec_for(seed))
            with pytest.raises(ServiceOverloaded) as shed:
                service.submit(spec_for(703))
            assert shed.value.depth == 3
            assert shed.value.budget == 3
            assert 1.0 <= shed.value.retry_after_s <= 120.0
            assert service.metrics.counters["serve.shed"] == 1
            # Dedup against an in-flight job is NOT shed even at budget.
            _, how = service.submit(spec_for(700))
            assert how == "deduped"
            drain_gated(service, gate)
            # Capacity freed: the same request is now admitted.
            job, how = service.submit(spec_for(703))
            assert how == "queued"
            wait_done(service, job)
        finally:
            service.stop()

    def test_malformed_spec_is_rejected_before_admission(self, tmp_path):
        service = make_service(tmp_path)
        service.start()
        try:
            with pytest.raises(ConfigurationError):
                service.submit({"workload": "bogus"})
            assert service.metrics.counters["serve.accepted"] == 0
        finally:
            service.stop()

    @pytest.mark.parametrize(
        "priority", [[1], True, 1.0, 3, -1, None, "urgent", {"rank": 0}]
    )
    def test_non_wire_priority_is_rejected_before_admission(
        self, tmp_path, priority
    ):
        service = make_service(tmp_path)
        with pytest.raises(ServiceError, match="^priority: expected one of"):
            service.submit(spec_for(20), priority=priority)
        assert service.metrics.counters["serve.accepted"] == 0
        assert service._heap == []

    @pytest.mark.parametrize(
        "priority, rank", [("high", 0), ("low", 2), (0, 0), (2, 2)]
    )
    def test_wire_priorities_are_names_or_ranks(self, tmp_path, priority, rank):
        service = make_service(tmp_path)
        service.start()
        try:
            job, how = service.submit(spec_for(21), priority=priority)
            assert (how, job.priority) == ("queued", rank)
            wait_done(service, job)
        finally:
            service.stop()


class TestEventDrivenEngine:
    """The engine wakes on admission and stop instead of on a timer."""

    def test_admitted_job_starts_without_waiting_for_a_poll_step(
        self, tmp_path
    ):
        service = make_service(tmp_path)
        service.start()
        try:
            wait_done(service, service.submit(spec_for(1))[0])  # workers up
            time.sleep(0.3)  # let the engine settle into an idle wait
            queued_ms = []
            for seed in range(2, 12):
                job, how = service.submit(spec_for(seed))
                assert how == "queued"
                wait_done(service, job)
                queued_ms.append((job.started_s - job.submitted_s) * 1e3)
            assert statistics.median(queued_ms) < 10.0, queued_ms
        finally:
            service.stop()

    def test_concurrent_submitters_all_complete(self, tmp_path):
        # More submitting threads than cores, switching often, racing
        # the engine's drain-then-feed: every admission must be run.
        service = make_service(tmp_path)
        service.start()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            jobs, errors = [], []
            lock = threading.Lock()

            def submit_and_wait(first_seed):
                try:
                    for seed in range(first_seed, first_seed + 5):
                        job, _ = service.submit(spec_for(seed))
                        assert service.wait(job, timeout_s=20.0)
                        with lock:
                            jobs.append(job)
                except Exception as error:  # noqa: BLE001 - reported below
                    with lock:
                        errors.append(repr(error))

            threads = [
                threading.Thread(target=submit_and_wait, args=(100 + 10 * i,))
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            service.stop()
        assert errors == []
        assert len(jobs) == 40 and all(job.state == DONE for job in jobs)
        assert service.metrics.counters["serve.executed"] == 40

    def test_stop_joins_the_engine_promptly(self, tmp_path):
        service = make_service(tmp_path)
        service.start()
        wait_done(service, service.submit(spec_for(1))[0])
        time.sleep(0.3)
        started = time.monotonic()
        service.stop()
        assert time.monotonic() - started < 0.5
        assert service._wake_w is None  # the self-pipe is closed


class TestFailureSemantics:
    def test_deterministic_task_failure_is_journaled_not_retried(
        self, tmp_path
    ):
        service = make_service(tmp_path)
        service.start()
        try:
            job, _ = service.submit(spec_for(666))
            wait_done(service, job)
            assert job.state == FAILED
            assert "scripted deterministic failure" in job.error
            assert service.metrics.counters["core.retries"] == 0
        finally:
            service.stop()
        # Restart: the failure is recalled from the ledger, not re-run.
        again = make_service(tmp_path)
        again.start()
        try:
            assert again.metrics.counters["serve.recovered"] == 0
            recalled = again.job(job.key)
            assert recalled is not None and recalled.state == FAILED
            resubmitted, how = again.submit(spec_for(666))
            assert how == "deduped"
            assert resubmitted.state == FAILED
            assert again.metrics.counters["serve.executed"] == 0
        finally:
            again.stop()

    def test_worker_suicide_is_retried_to_success(self, tmp_path, gate):
        service = make_service(tmp_path)
        service.start()
        try:
            job, _ = service.submit(spec_for(901))  # SIGKILLs on attempt 1
            wait_done(service, job, timeout_s=30.0)
            assert job.state == DONE
            assert service.metrics.counters["core.crashes"] == 1
            assert service.metrics.counters["core.retries"] == 1
        finally:
            service.stop()


class TestRecovery:
    def test_sigkill_equivalent_stop_recovers_and_finishes(
        self, tmp_path, gate
    ):
        service = make_service(tmp_path)
        service.start()
        keys = []
        try:
            for seed in (710, 711, 712):
                job, _ = service.submit(spec_for(seed))
                keys.append(job.key)
        finally:
            service.stop()  # gate still held: nothing completed

        os.unlink(gate)
        revived = make_service(tmp_path)
        revived.start()
        try:
            assert revived.metrics.counters["serve.recovered"] == 3
            for key in keys:
                job = revived.job(key)
                assert job is not None
                wait_done(revived, job)
                assert job.state == DONE
                assert revived.result(key)["seed"] in (710, 711, 712)
        finally:
            revived.stop()

    def test_recovered_results_are_bit_identical_to_a_clean_run(
        self, tmp_path, gate
    ):
        spec = tiny_real_spec(seed=721)  # really simulated, real digests

        clean = ExperimentService(tmp_path / "clean", workers=1)
        clean.start()
        try:
            job, _ = clean.submit(spec)
            wait_done(clean, job, timeout_s=60.0)
            clean_digest = result_digest(clean.result(job.key))
        finally:
            clean.stop()

        # Accept the job on a service whose (gated) worker can never
        # finish it — a deterministic stand-in for a daemon killed
        # mid-simulation — then recover on a real service over the same
        # state dir.
        crashed = ExperimentService(
            tmp_path / "crashed", workers=1, work_fn=scripted_work
        )
        crashed.start()
        try:
            job2, _ = crashed.submit(spec)
        finally:
            crashed.stop()

        revived = ExperimentService(tmp_path / "crashed", workers=1)
        revived.start()
        try:
            recovered = revived.job(job2.key)
            assert recovered is not None
            assert recovered.recovered
            wait_done(revived, recovered, timeout_s=60.0)
            assert result_digest(revived.result(job2.key)) == clean_digest
        finally:
            revived.stop()


    @pytest.mark.parametrize(
        "spec",
        [
            {"workload": "XX"},
            # A job journaled by a build that still had the FFS policy.
            {"workload": "TS", "policy": {"name": "ffs", "block_size": "8K"}},
        ],
        ids=["unknown-workload", "retired-ffs-policy"],
    )
    def test_undecodable_ledger_spec_is_failed_not_run(self, tmp_path, spec):
        # Recovery rebuilds each orphaned task from its journaled spec; a
        # spec that no longer decodes fails the same way every restart,
        # so it is journaled as a deterministic failure.
        ledger = RunLedger(tmp_path / "state")
        ledger.open()
        ledger.accept("stale-key", spec)
        ledger.close()
        service = make_service(tmp_path)
        service.start()
        try:
            job = service.job("stale-key")
            assert job is not None and job.state == FAILED
            assert "no longer decodes" in job.error
            assert service.metrics.counters["serve.recovered"] == 0
        finally:
            service.stop()
        replayed = RunLedger(tmp_path / "state")
        entry = replayed.open()["stale-key"]
        replayed.close()
        assert entry.done and "no longer decodes" in entry.error


class TestPrioritiesAndViews:
    def test_high_priority_overtakes_queued_low(self, tmp_path, gate):
        service = make_service(tmp_path, workers=1)
        service.start()
        try:
            blocker, _ = service.submit(spec_for(760))  # occupies the worker
            deadline = time.monotonic() + 10.0
            while service.stats_view()["gauges"]["serve.jobs.running"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            low, _ = service.submit(spec_for(10), priority="low")
            high, _ = service.submit(spec_for(11), priority="high")
            drain_gated(service, gate)
            wait_done(service, low)
            wait_done(service, high)
            assert high.finished_s < low.finished_s
        finally:
            service.stop()

    def test_fresh_stats_view_is_a_registry_snapshot(self, tmp_path):
        service = make_service(tmp_path)
        service.start()
        try:
            view = service.stats_view()
        finally:
            service.stop()
        assert json.loads(json.dumps(view)) == view
        assert list(view) == ["counters", "gauges", "totals", "histograms"]
        assert view["counters"] == dict.fromkeys(SERVICE_COUNTERS, 0)
        assert view["gauges"] == {
            "serve.budget": 32,
            "serve.depth": 0,
            "serve.jobs.done": 0,
            "serve.jobs.failed": 0,
            "serve.jobs.queued": 0,
            "serve.jobs.running": 0,
            "serve.uptime_s": view["gauges"]["serve.uptime_s"],
            "serve.workers": 2,
        }

    def test_job_view_carries_the_digest_witness(self, tmp_path):
        service = make_service(tmp_path)
        service.start()
        try:
            job, _ = service.submit(spec_for(33))
            wait_done(service, job)
            view = service.job_view(job)
            assert view["status"] == "done"
            expected = result_digest({"seed": 33, "square": 33 * 33})
            assert view["summary"]["result_digest"] == expected
        finally:
            service.stop()

    def test_unknown_job_is_none_but_cached_result_synthesizes(self, tmp_path):
        service = make_service(tmp_path)
        service.start()
        try:
            assert service.job("no-such-key") is None
            job, _ = service.submit(spec_for(44))
            wait_done(service, job)
            key = job.key
        finally:
            service.stop()
        # New service, same state dir, empty registry: the result cache
        # is the durable record.
        revived = make_service(tmp_path)
        revived.start()
        try:
            synthesized = revived.job(key)
            assert synthesized is not None
            assert synthesized.state == DONE
        finally:
            revived.stop()

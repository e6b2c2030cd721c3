"""Tests for the split pool layers (WorkerCrew / TaskScheduler) and the
deterministic retry/backoff schedule satellites."""

import os
import threading
import time

from repro.core.pool import TaskScheduler, WorkerCrew, backoff_delay
from tests.core.test_supervision import run_supervised


# -- picklable work functions for the spawn workers -------------------------


def quick(x):
    return ("ok", x + 1, 0.0)


def slow_if_zero(x):
    """Task payload 0 hangs forever; everything else returns fast."""
    if x == 0:
        time.sleep(300)
    return ("ok", x * 10, 0.0)


def napping(x):
    time.sleep(1.0)
    return ("ok", x, 0.0)


def backoff_schedule(jitter_seed, index, retries, base_s):
    """Every retry delay a task could experience, in attempt order."""
    return [
        backoff_delay(jitter_seed, index, attempt, base_s)
        for attempt in range(retries)
    ]


class TestBackoffDeterminism:
    def test_same_seed_means_identical_schedule(self):
        a = backoff_schedule(42, index=3, retries=4, base_s=0.5)
        b = backoff_schedule(42, index=3, retries=4, base_s=0.5)
        assert a == b
        assert len(a) == 4

    def test_schedule_is_exponential_with_bounded_jitter(self):
        schedule = backoff_schedule(7, index=0, retries=3, base_s=0.5)
        for attempt, delay in enumerate(schedule):
            base = 0.5 * (2.0**attempt)
            assert base <= delay <= 1.5 * base

    def test_different_seed_index_or_attempt_changes_the_jitter(self):
        base = backoff_delay(1, index=0, attempt=0, base_s=0.5)
        assert backoff_delay(2, index=0, attempt=0, base_s=0.5) != base
        assert backoff_delay(1, index=1, attempt=0, base_s=0.5) != base
        # Different attempts share no jitter stream either (beyond the
        # doubled base).
        first, second = backoff_schedule(1, index=0, retries=2, base_s=0.5)
        assert second - 2 * first != 0

    def test_scheduler_retry_uses_the_published_schedule(self):
        # The published schedule is the contract: a service replaying a
        # request after a restart must back off identically.
        scheduler = TaskScheduler(WorkerCrew(quick), retries=2, jitter_seed=9)
        assert backoff_schedule(
            scheduler.jitter_seed, 5, scheduler.retries, scheduler.backoff_base_s
        ) == backoff_schedule(9, 5, 2, 0.5)


class TestTimeoutWithSiblings:
    def test_hung_task_is_killed_while_siblings_complete(self):
        out, counters = run_supervised(
            slow_if_zero, [(i, i) for i in range(5)], 3, timeout_s=1.5
        )
        outcomes = {i: outcome for i, _, outcome in out}
        assert set(outcomes) == set(range(5))
        status0, detail0, _ = outcomes[0]
        assert status0 == "error"
        assert "timeout" in detail0
        for i in (1, 2, 3, 4):
            assert outcomes[i] == ("ok", i * 10, 0.0)
        assert counters["core.timeouts"] == 1
        assert counters["core.workers_replaced"] == 1


class TestWorkerCrew:
    def test_incremental_feeding_mid_run(self):
        crew = WorkerCrew(quick)
        scheduler = TaskScheduler(crew)
        try:
            crew.ensure_workers(2)
            scheduler.add(0, 10)
            done = {}
            fed_second = False
            while scheduler.outstanding or not fed_second:
                for index, _, outcome in scheduler.step(0.05):
                    done[index] = outcome
                if not fed_second and 0 in done:
                    scheduler.add(1, 20)  # fed after the first completed
                    fed_second = True
            assert done == {0: ("ok", 11, 0.0), 1: ("ok", 21, 0.0)}
        finally:
            crew.shutdown()

    def test_kill_one_is_observed_as_a_crash_and_retried(self):
        crew = WorkerCrew(napping)
        scheduler = TaskScheduler(crew, retries=1, backoff_base_s=0.05)
        try:
            crew.ensure_workers(1)
            scheduler.add(0, "payload")
            scheduler.step(0.05)  # dispatch
            deadline = time.monotonic() + 5.0
            while crew.busy == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert crew.kill_one() == 0
            outcomes = []
            deadline = time.monotonic() + 15.0
            while not outcomes and time.monotonic() < deadline:
                outcomes = scheduler.step(0.1)
            [(index, _, (status, payload, _))] = outcomes
            assert (index, status, payload) == (0, "ok", "payload")
            assert crew.metrics.counters["core.crashes"] == 1
            assert crew.metrics.counters["core.retries"] == 1
        finally:
            crew.shutdown()

    def test_try_assign_survives_a_worker_dead_before_dispatch(self):
        crew = WorkerCrew(quick)
        try:
            crew.ensure_workers(1)
            [(process, _)] = crew._workers.values()
            process.kill()
            process.join()
            # The dead worker is replaced inline and the task lands on
            # the replacement instead of raising BrokenPipeError.
            assert crew.try_assign(0, 1) is True
            assert crew.metrics.counters["core.workers_replaced"] == 1
            events = []
            deadline = time.monotonic() + 10.0
            while not events and time.monotonic() < deadline:
                events = crew.poll(0.1)
            assert events[0].kind == "done"
            assert events[0].outcome == ("ok", 2, 0.0)
        finally:
            crew.shutdown()

    def test_shutdown_reaps_every_child(self):
        crew = WorkerCrew(quick)
        crew.ensure_workers(3)
        pids = [process.pid for process, _ in crew._workers.values()]
        crew.shutdown()
        assert crew.size == 0
        for pid in pids:
            # A reaped child no longer exists (or is at worst a zombie
            # already joined); os.kill(pid, 0) must fail.
            try:
                os.kill(pid, 0)
                alive = True
            except ProcessLookupError:
                alive = False
            assert not alive
        crew.shutdown()  # idempotent



class TestWakeDescriptor:
    """``poll``/``step`` return as soon as the caller's wake fd is written,
    and the fd is never mistaken for a worker."""

    def poll_until_woken(self, poll) -> list:
        """Run ``poll(fd)`` while another thread writes ``fd`` after 0.1 s."""
        read_fd, write_fd = os.pipe()
        written: list[float] = []

        def write_later():
            time.sleep(0.1)
            written.append(time.monotonic())
            os.write(write_fd, b"x")

        writer = threading.Thread(target=write_later)
        try:
            writer.start()
            events = poll(read_fd)
            returned = time.monotonic()
            writer.join(timeout=5.0)
            assert os.read(read_fd, 16) == b"x"  # left for the caller
        finally:
            os.close(read_fd)
            os.close(write_fd)
        assert written and returned - written[0] < 0.5
        return events

    def test_idle_crew_wakes_on_the_descriptor(self):
        crew = WorkerCrew(quick)
        try:
            crew.ensure_workers(1)
            events = self.poll_until_woken(
                lambda fd: crew.poll(timeout_s=5, wake=fd)
            )
            assert events == []
            assert crew.size == 1 and crew.busy == 0
        finally:
            crew.shutdown()

    def test_busy_crew_wakes_on_the_descriptor(self):
        crew = WorkerCrew(slow_if_zero)  # payload 0 sleeps for minutes
        try:
            crew.ensure_workers(1)
            assert crew.try_assign(0, 0)
            events = self.poll_until_woken(
                lambda fd: crew.poll(timeout_s=5, wake=fd)
            )
            assert events == []
            assert crew.busy == 1  # the sleeper is still in flight
        finally:
            crew.kill_one()
            crew.shutdown()

    def test_scheduler_step_passes_the_descriptor_through(self):
        scheduler = TaskScheduler(WorkerCrew(quick))
        try:
            events = self.poll_until_woken(
                lambda fd: scheduler.step(max_wait_s=5, wake=fd)
            )
            assert events == []
        finally:
            scheduler.crew.shutdown()

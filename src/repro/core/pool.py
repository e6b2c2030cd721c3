"""Supervised worker execution: process management + task scheduling.

``concurrent.futures.ProcessPoolExecutor`` cannot kill an individual
worker (a hung task hangs the sweep) and a worker that dies abruptly
poisons the whole pool (``BrokenProcessPool`` loses every in-flight
task).  Long sweeps — and the long-running experiment service — need
stronger guarantees, so this module manages its own ``spawn`` processes
over pipes, split into two layers:

* :class:`WorkerCrew` — **process management only**.  Spawns workers,
  ships assignments over pipes, collects results and progress frames,
  detects crashed workers, enforces per-assignment wall-clock deadlines
  (killing the worker), and replaces casualties.  It has no opinion
  about *which* task runs next or whether a failure should retry.
* :class:`TaskScheduler` — **scheduling policy only**.  Owns the pending
  queue and the retry/backoff state, decides dispatch order, and turns
  crew failures into either a deterministic backoff retry or a final
  error outcome.  Tasks can be fed incrementally (:meth:`~TaskScheduler.add`
  at any time), which is what lets a network service pour requests into
  the same machinery a local sweep uses.

Both :class:`~repro.core.runner.ExperimentRunner` (a one-shot sweep: add
every task, step until nothing is outstanding) and
:class:`~repro.serve.service.ExperimentService` (a feed that never ends)
drive a crew through a scheduler.  Together they guarantee:

* **Wall-clock timeouts** — a task that exceeds ``timeout_s`` has its
  worker killed and is retried or reported, while sibling tasks keep
  running.
* **Crash isolation** — a worker that dies (segfault, OOM kill,
  ``SIGKILL`` from an operator) is detected, its task is requeued, and a
  replacement worker is spawned.  No task is ever lost.
* **Bounded retries with seeded backoff** — crashes and timeouts retry
  up to ``retries`` times with exponential backoff plus deterministic
  jitter (see :func:`backoff_delay`: two runs of the same sweep back off
  identically).  Ordinary task exceptions are *not* retried: the
  simulation is deterministic, so a failing configuration fails
  identically every time — those travel back as structured errors.

:meth:`TaskScheduler.step` returns ``(index, payload, (status, result,
elapsed_s))`` in completion order; the caller reorders by index, which
keeps parallel sweeps bit-identical to serial ones regardless of
scheduling.
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable

from ..errors import ConfigurationError
from ..obs.metrics import MetricsRegistry
from ..sim.rng import RandomStream

#: The longest a supervision step blocks when nothing happens.  A
#: result, a worker death (its pipe reads EOF) or a write to the
#: caller's wake descriptor ends the wait at once, and deadlines and
#: backoff expiries shorten it, so this interval only bounds how long
#: an otherwise idle supervisor goes between liveness checks.
_POLL_INTERVAL_S = 0.1

#: The supervision counters a crew and its scheduler increment.
CREW_COUNTERS = (
    "core.crashes", "core.timeouts", "core.retries", "core.workers_replaced",
)


def _pool_worker_main(conn) -> None:  # pragma: no cover - child process
    """Worker loop: receive a task, run it, send the outcome back.

    Runs in a spawned child.  ``None`` is the shutdown sentinel.  The
    callable is received once per task so the parent can ship arbitrary
    work functions without global registration.

    While a task runs, a telemetry emitter is installed that streams
    ``("progress", frame)`` messages over the same pipe; the supervisor
    routes them to its telemetry callback.  Emitter exceptions are not
    swallowed: a worker whose parent is gone should die, and the
    supervisor's crash handling takes over from there.
    """
    from ..obs.telemetry import install_emitter, uninstall_emitter

    try:
        while True:
            item = conn.recv()
            if item is None:
                return
            work_fn, payload = item
            install_emitter(lambda frame: conn.send(("progress", frame)))
            try:
                conn.send(("done", work_fn(payload)))
            except Exception:  # noqa: BLE001 - structured failure channel
                conn.send(("raised", traceback.format_exc()))
            finally:
                uninstall_emitter()
    except (EOFError, KeyboardInterrupt):
        return


def backoff_delay(
    jitter_seed: int, index: int, attempt: int, base_s: float
) -> float:
    """The deterministic delay before retry ``attempt + 1`` of a task.

    Exponential in the attempt number plus seeded jitter: the jitter
    stream is derived purely from ``(jitter_seed, index, attempt)``, so
    two runs of the same sweep — or a service restart replaying the same
    request — produce the identical backoff schedule.
    """
    delay = base_s * (2.0**attempt)
    jitter = RandomStream(
        jitter_seed, f"retry/{index}/{attempt}"
    ).uniform(0.0, 0.5 * delay)
    return delay + jitter


@dataclass
class _Assignment:
    """One task attempt in flight on a worker."""

    index: int
    payload: Any
    attempt: int  # 0 = first try
    deadline: float | None  # time.monotonic() cutoff, None = no timeout


@dataclass
class _Retry:
    """A task waiting out its backoff before re-entering the queue."""

    ready_at: float
    index: int
    payload: Any
    attempt: int


@dataclass
class CrewEvent:
    """One terminal thing that happened to an in-flight assignment.

    ``kind`` is ``"done"`` (the worker reported an outcome — including a
    task exception, which is terminal and never retried) or ``"failed"``
    (the *worker* failed: crash or deadline kill; the scheduler decides
    whether the task retries).
    """

    kind: str
    assignment: _Assignment
    outcome: tuple[str, Any, float] | None = None
    detail: str | None = None


class WorkerCrew:
    """Process management: spawned workers, pipes, deadlines, casualties.

    The crew knows nothing about queues, priorities, or retry policy —
    it accepts one assignment per idle worker, reports
    :class:`CrewEvent`s from :meth:`poll`, and keeps its worker count
    stable by replacing the dead.  Local sweeps and the long-running
    experiment service drive the same crew.

    Args:
        work_fn: picklable callable applied to each assignment payload
            in a worker; its return value travels back verbatim.
        timeout_s: per-assignment wall-clock budget enforced by the
            crew (the worker is killed at the deadline); ``None``
            disables.
        telemetry: optional ``(task index, frame)`` callback for the
            progress frames workers stream alongside their results.
        metrics: the owner's registry, which receives the
            :data:`CREW_COUNTERS`; a private one is created when omitted.
    """

    def __init__(
        self,
        work_fn: Callable[[Any], Any],
        timeout_s: float | None = None,
        telemetry: Callable[[int, dict], None] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigurationError(f"timeout must be positive: {timeout_s}")
        self.work_fn = work_fn
        self.timeout_s = timeout_s
        self.telemetry = telemetry
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._context = get_context("spawn")
        self._workers: dict[Any, tuple[Any, _Assignment | None]] = {}

    # -- sizing --------------------------------------------------------------

    @property
    def size(self) -> int:
        """Living worker processes (busy + idle)."""
        return len(self._workers)

    @property
    def busy(self) -> int:
        """Workers currently running an assignment."""
        return sum(
            1 for _, assignment in self._workers.values() if assignment is not None
        )

    @property
    def idle(self) -> int:
        """Workers ready for an assignment."""
        return self.size - self.busy

    def ensure_workers(self, n: int) -> None:
        """Spawn workers until at least ``n`` are alive."""
        while self.size < n:
            self._spawn_worker()

    def _spawn_worker(self) -> None:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_pool_worker_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        self._workers[parent_conn] = (process, None)

    # -- dispatch ------------------------------------------------------------

    def try_assign(self, index: int, payload: Any, attempt: int = 0) -> bool:
        """Ship one task to an idle worker; False when none is idle."""
        while True:
            idle = next(
                (
                    conn
                    for conn, (_, assignment) in self._workers.items()
                    if assignment is None
                ),
                None,
            )
            if idle is None:
                return False
            process, _ = self._workers[idle]
            deadline = (
                time.monotonic() + self.timeout_s
                if self.timeout_s is not None
                else None
            )
            try:
                idle.send((self.work_fn, payload))
            except OSError:
                # The worker died before its first assignment (startup
                # import failure, OOM kill): replace it and retry on the
                # replacement rather than poisoning the caller with a
                # broken pipe.
                self.metrics.incr("core.workers_replaced")
                process.kill()
                process.join()
                idle.close()
                del self._workers[idle]
                self._spawn_worker()
                continue
            self._workers[idle] = (
                process,
                _Assignment(index, payload, attempt, deadline),
            )
            return True

    def kill_one(self) -> int | None:
        """SIGKILL one busy worker (chaos hook); returns its task index.

        The kill is observed by the next :meth:`poll` as an ordinary
        worker crash — the worker is replaced and the scheduler's retry
        policy applies — which is exactly what makes it useful for
        fault drills: the recovery path exercised is the real one.
        """
        for _, (process, assignment) in self._workers.items():
            if assignment is None:
                continue
            process.kill()
            return assignment.index
        return None

    # -- supervision ---------------------------------------------------------

    def next_deadline(self) -> float | None:
        """The earliest in-flight deadline (monotonic), if any."""
        deadlines = [
            a.deadline
            for _, a in self._workers.values()
            if a is not None and a.deadline is not None
        ]
        return min(deadlines) if deadlines else None

    def poll(self, timeout_s: float, wake: int | None = None) -> list[CrewEvent]:
        """One supervision step: collect results, reap the dead, enforce
        deadlines.

        Blocks up to ``timeout_s`` (less when a deadline lands sooner)
        waiting for a busy worker to report or die, or for ``wake`` — a
        readable file descriptor the caller owns — to become readable.
        The crew never reads ``wake``: draining it is the caller's job,
        and it is never reported as a worker.
        """
        events: list[CrewEvent] = []
        busy = [
            conn
            for conn, (_, assignment) in self._workers.items()
            if assignment is not None
        ]
        now = time.monotonic()
        wait = timeout_s
        deadline = self.next_deadline()
        if deadline is not None:
            wait = min(wait, max(0.0, deadline - now))
        waitables = busy if wake is None else [*busy, wake]
        if waitables:
            readable = connection_wait(waitables, timeout=wait)
        else:
            if wait > 0:
                time.sleep(wait)
            readable = []

        for conn in readable:
            if conn is wake:
                continue
            process, assignment = self._workers[conn]
            started = (
                assignment.deadline - self.timeout_s
                if assignment.deadline is not None
                else None
            )
            elapsed = (
                time.monotonic() - started if started is not None else 0.0
            )
            finished = None
            try:
                # Drain progress frames queued ahead of the result; the
                # assignment stays in flight until a terminal message
                # ("done"/"raised") arrives, so timeouts and crash
                # detection still see the task as running.
                while True:
                    kind, payload = conn.recv()
                    if kind == "progress":
                        if self.telemetry is not None:
                            self.telemetry(assignment.index, payload)
                        if not conn.poll():
                            break
                    else:
                        finished = (kind, payload)
                        break
            except (EOFError, OSError):
                # Died between finishing and reporting: treat as a crash
                # (caught by the liveness check below).
                continue
            if finished is None:
                continue
            kind, payload = finished
            self._workers[conn] = (process, None)
            if kind == "done":
                events.append(CrewEvent("done", assignment, outcome=payload))
            else:
                events.append(
                    CrewEvent(
                        "done",
                        assignment,
                        outcome=("error", payload, elapsed),
                    )
                )

        now = time.monotonic()
        for conn, (process, assignment) in list(self._workers.items()):
            if assignment is None:
                continue
            if not process.is_alive():
                self.metrics.incr("core.crashes")
                self.metrics.incr("core.workers_replaced")
                detail = (
                    f"worker pid {process.pid} died (exitcode "
                    f"{process.exitcode}) running task {assignment.index}"
                )
                conn.close()
                del self._workers[conn]
                self._spawn_worker()
                events.append(CrewEvent("failed", assignment, detail=detail))
            elif assignment.deadline is not None and now >= assignment.deadline:
                self.metrics.incr("core.timeouts")
                self.metrics.incr("core.workers_replaced")
                detail = (
                    f"task {assignment.index} exceeded its {self.timeout_s:g}s "
                    f"wall-clock timeout; worker pid {process.pid} killed"
                )
                process.kill()
                process.join()
                conn.close()
                del self._workers[conn]
                self._spawn_worker()
                events.append(CrewEvent("failed", assignment, detail=detail))
        return events

    def shutdown(self) -> None:
        """Stop every worker: polite sentinel first, SIGKILL stragglers.

        Safe to call repeatedly and from ``finally`` blocks; guarantees
        every spawned child is reaped (joined) and every pipe closed no
        matter how the caller exited, so repeated in-process crews leak
        neither processes nor descriptors.
        """
        for conn, (process, _) in self._workers.items():
            try:
                conn.send(None)
            except (OSError, BrokenPipeError):
                pass
        deadline = time.monotonic() + 2.0
        for conn, (process, _) in self._workers.items():
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join()
            try:
                conn.close()
            except OSError:
                pass
        self._workers.clear()


class TaskScheduler:
    """Scheduling policy over a :class:`WorkerCrew`: queueing + retries.

    Tasks enter through :meth:`add` — up front for a one-shot sweep, or
    continuously from a network front door — and leave as outcome
    triples from :meth:`step`.  Worker failures (crash, deadline kill)
    consult the retry budget and re-queue after a deterministic backoff;
    task exceptions are terminal.

    Args:
        crew: the worker crew to drive.
        retries: extra attempts granted after a crash or timeout.
        backoff_base_s: first retry delay; doubles per attempt.
        jitter_seed: seeds the deterministic backoff jitter.
    """

    def __init__(
        self,
        crew: WorkerCrew,
        retries: int = 0,
        backoff_base_s: float = 0.5,
        jitter_seed: int = 0,
    ) -> None:
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0: {retries}")
        self.crew = crew
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.jitter_seed = jitter_seed
        self.metrics = crew.metrics
        self._queue: deque[tuple[int, Any, int]] = deque()
        self._retries: list[_Retry] = []
        self._outstanding = 0

    # -- feeding -------------------------------------------------------------

    def add(self, index: int, payload: Any) -> None:
        """Enqueue one task; callable at any time, including mid-run."""
        self._queue.append((index, payload, 0))
        self._outstanding += 1

    @property
    def outstanding(self) -> int:
        """Tasks accepted but not yet resolved into an outcome."""
        return self._outstanding

    @property
    def queued(self) -> int:
        """Tasks waiting for a worker (excluding backoff waits)."""
        return len(self._queue)

    # -- one supervision step ------------------------------------------------

    def step(
        self, max_wait_s: float = _POLL_INTERVAL_S, wake: int | None = None
    ) -> list[tuple[int, Any, tuple[str, Any, float]]]:
        """Promote retries, dispatch, poll the crew once; return outcomes.

        Blocks at most ``max_wait_s`` (less when a deadline or a backoff
        expiry lands sooner, or when ``wake`` becomes readable — see
        :meth:`WorkerCrew.poll`).  An empty return just means nothing
        finished this step.
        """
        self._promote_ready_retries()
        self._dispatch()
        outcomes: list[tuple[int, Any, tuple[str, Any, float]]] = []
        for event in self.crew.poll(self._wait_budget(max_wait_s), wake):
            if event.kind == "done":
                self._outstanding -= 1
                outcomes.append(
                    (event.assignment.index, event.assignment.payload, event.outcome)
                )
            else:
                outcome = self._retry_or_fail(event.assignment, event.detail)
                if outcome is not None:
                    self._outstanding -= 1
                    outcomes.append(outcome)
        return outcomes

    # -- internals -----------------------------------------------------------

    def _wait_budget(self, max_wait_s: float) -> float:
        now = time.monotonic()
        wake = now + max_wait_s
        for r in self._retries:
            wake = min(wake, r.ready_at)
        # If work is queued but every worker is busy, the crew's poll
        # will return as soon as one frees up; deadlines are handled by
        # the crew itself.
        return max(0.0, wake - now)

    def _promote_ready_retries(self) -> None:
        now = time.monotonic()
        ready = [r for r in self._retries if r.ready_at <= now]
        for r in sorted(ready, key=lambda r: (r.ready_at, r.index)):
            self._retries.remove(r)
            self._queue.append((r.index, r.payload, r.attempt))

    def _dispatch(self) -> None:
        while self._queue:
            index, payload, attempt = self._queue[0]
            if not self.crew.try_assign(index, payload, attempt):
                return
            self._queue.popleft()

    def _retry_or_fail(
        self, assignment: _Assignment, detail: str
    ) -> tuple[int, Any, tuple[str, Any, float]] | None:
        if assignment.attempt < self.retries:
            self.metrics.incr("core.retries")
            delay = backoff_delay(
                self.jitter_seed,
                assignment.index,
                assignment.attempt,
                self.backoff_base_s,
            )
            self._retries.append(
                _Retry(
                    ready_at=time.monotonic() + delay,
                    index=assignment.index,
                    payload=assignment.payload,
                    attempt=assignment.attempt + 1,
                )
            )
            return None
        return (
            assignment.index,
            assignment.payload,
            (
                "error",
                f"{detail} (after {assignment.attempt + 1} attempt(s), "
                f"retries exhausted)",
                0.0,
            ),
        )


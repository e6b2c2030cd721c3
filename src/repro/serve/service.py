"""The experiment service: admission, single-flight dedup, recovery.

:class:`ExperimentService` is the transport-independent heart of
``repro serve`` — the HTTP front door (:mod:`repro.serve.http`) is a
thin shell over it, and tests drive it directly.  One service owns:

* an **admission queue**: a bounded priority heap.  A request beyond
  the ``max_queue`` budget is *shed* with a computed retry hint
  (:class:`~repro.errors.ServiceOverloaded` → HTTP 429 + Retry-After)
  instead of queueing unboundedly; heavy traffic degrades into bounded
  waiting plus honest rejections, never into an OOM-killed daemon.
* **single-flight dedup** keyed on the task's sha256 ``cache_key``: any
  number of identical concurrent requests collapse onto one
  :class:`Job`, cost one simulation, and all observe its result through
  the shared :class:`~repro.core.runner.ResultCache`.
* the **worker fabric**: a :class:`~repro.core.pool.WorkerCrew` +
  :class:`~repro.core.pool.TaskScheduler` driven by a dedicated engine
  thread — the same supervision machinery local sweeps use (wall-clock
  timeouts, crash replacement, deterministic backoff retries), fed
  incrementally from the network queue.  The engine is event-driven:
  it wakes on a worker result, an admission, a drill or a stop (a
  self-pipe), so a request waits only for its simulation.
* a **durable ledger** (:mod:`repro.serve.ledger`): every admitted
  request is journaled before it may run, every completion after its
  result is stored.  A SIGKILL'd daemon restarted on the same state
  directory re-admits exactly the orphaned jobs and — because the
  simulation derives everything from ``(config, seed)`` — finishes them
  bit-identically.
* **telemetry fan-out**: progress frames streamed by workers are routed
  to per-job subscriber queues (the SSE endpoint's feed).  Slow
  subscribers lose frames, never stall the engine; disconnected ones
  are pruned.
"""

from __future__ import annotations

import heapq
import itertools
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..core.pool import CREW_COUNTERS, TaskScheduler, WorkerCrew
from ..core.runner import (
    CACHE_COUNTERS,
    ExperimentTask,
    ResultCache,
    _canonical,
    execute_task,
)
from ..errors import ReproError, ServiceError, ServiceOverloaded
from ..obs.metrics import MetricsRegistry
from .codec import spec_to_task, task_to_spec
from .ledger import RunLedger

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED)

#: The request-path counters (``/v1/stats`` serves them with the
#: cache's and the crew's).
SERVE_COUNTERS = (
    "serve.accepted", "serve.deduped", "serve.cache_hits", "serve.shed",
    "serve.executed", "serve.failed", "serve.recovered",
    "serve.frames_routed", "serve.frames_dropped",
)

#: Wire priorities (lower runs first).
PRIORITIES = {"high": 0, "normal": 1, "low": 2}


def priority_rank(priority: Any) -> int:
    """A wire priority as its heap rank: one of :data:`PRIORITIES`' names,
    or one of their int ranks (not a bool).

    Raises:
        ServiceError: anything else (→ HTTP 400).
    """
    if isinstance(priority, str) and priority in PRIORITIES:
        return PRIORITIES[priority]
    if (
        isinstance(priority, int)
        and not isinstance(priority, bool)
        and priority in PRIORITIES.values()
    ):
        return priority
    raise ServiceError(
        f"priority: expected one of {', '.join(PRIORITIES)} or an int "
        f"0-{len(PRIORITIES) - 1}, got {priority!r}"
    )


#: Fallback per-job service-time guess (seconds) before any completions.
_DEFAULT_SERVICE_S = 5.0

#: Dropped frames counter key pushed to subscribers is intentionally
#: absent: a slow client simply sees gaps — frames are progress hints,
#: not data.
_SUBSCRIBER_QUEUE_FRAMES = 256


@dataclass
class Job:
    """One admitted unit of work (shared by all identical requests)."""

    key: str
    spec: dict
    task: ExperimentTask | None = None  # None for jobs that never run
    priority: int = 1
    state: str = QUEUED
    error: str | None = None
    submitted_s: float = field(default_factory=time.monotonic)
    started_s: float | None = None
    finished_s: float | None = None
    elapsed_s: float = 0.0
    recovered: bool = False
    done_event: threading.Event = field(default_factory=threading.Event)
    subscribers: list[queue.Queue] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        return self.state in (DONE, FAILED)


def result_digest(result: Any) -> str:
    """Canonical sha256 of a result — the wire's bit-identity witness.

    Uses the runner's canonical JSON projection (stable across
    processes, platforms, and restarts), so two services computing the
    same point can be compared without shipping the pickles.
    """
    import hashlib
    import json

    rendered = json.dumps(
        _canonical(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(rendered.encode()).hexdigest()


def result_summary(result: Any) -> dict:
    """JSON-safe headline view of an experiment result."""
    summary: dict[str, Any] = {
        "type": type(result).__name__,
        "result_digest": result_digest(result),
    }
    application = getattr(result, "application", None)
    if application is not None:
        summary["application_percent"] = application.percent
        summary["sequential_percent"] = result.sequential.percent
    fragmentation = getattr(result, "fragmentation", None)
    if fragmentation is not None:
        summary["internal_fragmentation_percent"] = fragmentation.internal_percent
        summary["external_fragmentation_percent"] = fragmentation.external_percent
        summary["operations"] = result.operations
    fingerprints = getattr(result, "fingerprints", None)
    if fingerprints:
        summary["fingerprints"] = [
            {"index": f.index, "time_ms": f.time_ms, "digest": f.digest}
            for f in fingerprints
        ]
    return summary


class ExperimentService:
    """Admission control + single-flight + durable execution.

    Args:
        state_dir: the service's durable root: ``ledger.jsonl`` plus a
            ``results/`` cache live here.  Restarting on the same
            directory recovers orphaned work.
        workers: worker process count for the crew.
        max_queue: admission budget — jobs queued or running before
            requests shed.  Deduped attachments to an existing job never
            count against it.
        timeout_s / retries / backoff_base_s / jitter_seed: the crew and
            scheduler supervision knobs (see
            :class:`~repro.core.pool.WorkerCrew` and
            :class:`~repro.core.pool.TaskScheduler`).
        work_fn: picklable ``task -> (status, payload, elapsed)``
            override for tests; defaults to
            :func:`~repro.core.runner.execute_task`.  A ``"task-error"``
            status is a deterministic failure and is journaled; the
            scheduler's own ``"error"`` (crash or timeout after the
            retries run out) is environmental and is not, so a restart
            re-runs it.
    """

    def __init__(
        self,
        state_dir: str | Path,
        workers: int = 2,
        max_queue: int = 32,
        timeout_s: float | None = None,
        retries: int = 1,
        backoff_base_s: float = 0.5,
        jitter_seed: int = 0,
        work_fn: Callable[[ExperimentTask], tuple[str, Any, float]] | None = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"need at least one worker: {workers}")
        if max_queue < 1:
            raise ServiceError(f"admission budget must be >= 1: {max_queue}")
        self.state_dir = Path(state_dir)
        self.workers = workers
        self.max_queue = max_queue
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.jitter_seed = jitter_seed
        self.work_fn = work_fn or execute_task
        # Registered up front: the engine thread increments the crew's
        # counters without the service lock, so no key may appear while
        # an HTTP thread snapshots the registry.
        self.metrics = MetricsRegistry()
        for name in (*SERVE_COUNTERS, *CACHE_COUNTERS, *CREW_COUNTERS):
            self.metrics.incr(name, 0)
        self.cache = ResultCache(self.state_dir / "results", self.metrics)
        self.ledger = RunLedger(self.state_dir)
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._heap: list[tuple[int, int, str]] = []
        self._seq = itertools.count()
        self._dispatch_seq = itertools.count()
        self._dispatched: dict[int, str] = {}
        self._service_times: list[float] = []
        self._kill_requests = 0
        self._stop = threading.Event()
        self._engine: threading.Thread | None = None
        # The engine's self-pipe; open while the engine runs.  The lock
        # keeps a late nudge from writing to a closed (or reused) fd.
        self._wake_lock = threading.Lock()
        self._wake_r: int | None = None
        self._wake_w: int | None = None
        self.started_at: float | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Open the ledger, re-admit orphaned work, start the engine."""
        if self._engine is not None:
            raise ServiceError("service already started")
        entries = self.ledger.open()
        with self._lock:
            for entry in entries.values():
                task, error = None, entry.error
                if not entry.done:
                    try:
                        task = spec_to_task(entry.spec)
                    except ReproError as rejected:
                        # A spec this build cannot decode fails the same
                        # way on every restart: journal it as such.
                        error = f"ledger spec no longer decodes: {rejected}"
                        self.ledger.done(entry.key, error=error)
                job = Job(
                    key=entry.key,
                    spec=entry.spec,
                    task=task,
                    priority=entry.priority,
                )
                if task is not None:
                    job.recovered = True
                    heapq.heappush(
                        self._heap, (job.priority, next(self._seq), job.key)
                    )
                    self.metrics.incr("serve.recovered")
                elif error is not None:
                    # A deterministic failure stays failed across
                    # restarts — re-running it would fail identically.
                    job.state, job.error = FAILED, error
                    job.done_event.set()
                else:
                    continue
                self._jobs[entry.key] = job
        self.started_at = time.monotonic()
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._engine = threading.Thread(
            target=self._engine_loop, name="repro-serve-engine", daemon=True
        )
        self._engine.start()

    def stop(self, timeout_s: float = 10.0) -> None:
        """Stop the engine and reap every worker.

        In-flight jobs stay journaled as accepted-but-not-done; the next
        :meth:`start` on the same state directory re-admits them — stop
        is deliberately indistinguishable from a crash as far as the
        recovery guarantees go.
        """
        self._stop.set()
        self._nudge()
        engine = self._engine
        if engine is not None:
            engine.join(timeout=timeout_s)
            self._engine = None
            if engine.is_alive():
                # The engine is wedged past the grace period: leave the
                # ledger open rather than race its appends; the daemon
                # is exiting anyway and the journal is fsynced per write.
                return
            with self._wake_lock:
                os.close(self._wake_r)
                os.close(self._wake_w)
                self._wake_r = self._wake_w = None
        self.ledger.close()

    # -- request path --------------------------------------------------------

    def submit(self, spec: Any, priority: str | int = "normal") -> tuple[Job, str]:
        """Admit one task spec; returns ``(job, how)``.

        ``how`` is ``"done"`` (served from the result cache),
        ``"deduped"`` (attached to an identical in-flight job), or
        ``"queued"`` (admitted and journaled).

        Raises:
            ConfigurationError: the spec is malformed (→ HTTP 400).
            ServiceError: the priority is not a wire priority (→ HTTP 400).
            ServiceOverloaded: admission budget exhausted (→ HTTP 429).
        """
        priority = priority_rank(priority)
        # Validate + canonicalize the spec outside the lock: rebuilding
        # the task computes the cache key and rejects malformed specs.
        task = spec_to_task(spec)
        key = task.cache_key
        spec = task_to_spec(task)
        with self._lock:
            job = self._jobs.get(key)
            if job is not None and not job.finished:
                self.metrics.incr("serve.deduped")
                return job, "deduped"
            cached = self.cache.load(key)
            if cached is not None:
                self.metrics.incr("serve.cache_hits")
                job = Job(key=key, spec=spec, state=DONE)
                job.elapsed_s = 0.0
                job.done_event.set()
                self._jobs[key] = job
                return job, "done"
            if job is not None and job.state == FAILED:
                # A journaled deterministic failure: serve the verdict,
                # do not re-run what fails identically every time.
                self.metrics.incr("serve.deduped")
                return job, "deduped"
            depth = self._depth_locked()
            if depth >= self.max_queue:
                self.metrics.incr("serve.shed")
                raise ServiceOverloaded(
                    self._retry_after_locked(depth), depth, self.max_queue
                )
            self.metrics.incr("serve.accepted")
            job = Job(key=key, spec=spec, task=task, priority=priority)
            self.ledger.accept(key, spec, priority=priority)
            self._jobs[key] = job
            heapq.heappush(self._heap, (priority, next(self._seq), key))
        self._nudge()
        return job, "queued"

    def job(self, key: str) -> Job | None:
        """The job for ``key`` — registry first, then the result cache.

        A restarted daemon has no registry entry for work completed in a
        previous life; the cache *is* the durable record, so a hit there
        synthesizes a done job view.
        """
        with self._lock:
            job = self._jobs.get(key)
            if job is not None:
                return job
        if self.cache.load(key) is not None:
            job = Job(key=key, spec={}, state=DONE)
            job.done_event.set()
            with self._lock:
                return self._jobs.setdefault(key, job)
        return None

    def job_view(self, job: Job) -> dict:
        """JSON-safe status document for one job."""
        view: dict[str, Any] = {
            "job": job.key,
            "status": job.state,
            "priority": job.priority,
            "recovered": job.recovered,
        }
        if job.error is not None:
            view["error"] = job.error
        if job.state == DONE:
            result = self.cache.load(job.key)
            if result is not None:
                view["summary"] = result_summary(result)
            view["elapsed_s"] = job.elapsed_s
        return view

    def wait(self, job: Job, timeout_s: float | None = None) -> bool:
        """Block until ``job`` finishes; True when it did."""
        return job.done_event.wait(timeout_s)

    def result(self, key: str) -> Any | None:
        """The stored result for a finished job, if any."""
        return self.cache.load(key)

    # -- telemetry fan-out ---------------------------------------------------

    def subscribe(self, job: Job) -> queue.Queue:
        """A queue of telemetry events for one job (SSE feed).

        Events are dicts: ``{"event": "progress", "data": frame}`` then a
        final ``{"event": "done", "data": view}``.  The queue is bounded;
        a subscriber that cannot keep up loses *progress* frames (never
        the final event, which is delivered via :meth:`unsubscribe`-safe
        best effort plus the job's done flag).
        """
        q: queue.Queue = queue.Queue(maxsize=_SUBSCRIBER_QUEUE_FRAMES)
        with self._lock:
            if job.finished:
                q.put({"event": "done", "data": self.job_view(job)})
            else:
                job.subscribers.append(q)
        return q

    def unsubscribe(self, job: Job, q: queue.Queue) -> None:
        with self._lock:
            if q in job.subscribers:
                job.subscribers.remove(q)

    def _publish(self, job: Job, event: dict, critical: bool) -> None:
        for q in list(job.subscribers):
            try:
                q.put_nowait(event)
                self.metrics.incr("serve.frames_routed")
            except queue.Full:
                if critical:
                    # Make room: drop the oldest progress frame so the
                    # terminal event always lands.
                    try:
                        q.get_nowait()
                        q.put_nowait(event)
                    except (queue.Empty, queue.Full):
                        pass
                self.metrics.incr("serve.frames_dropped")

    # -- admission internals -------------------------------------------------

    def _depth_locked(self) -> int:
        return sum(
            1 for job in self._jobs.values() if not job.finished
        )

    def _retry_after_locked(self, depth: int) -> float:
        if self._service_times:
            window = self._service_times[-32:]
            avg = sum(window) / len(window)
        else:
            avg = _DEFAULT_SERVICE_S
        estimate = avg * (depth - self.max_queue + 1 + depth) / (2 * self.workers)
        return min(120.0, max(1.0, estimate))

    # -- chaos hooks ---------------------------------------------------------

    def request_worker_kill(self) -> None:
        """Ask the engine to SIGKILL one busy worker (fault drill).

        The kill happens on the engine thread (the crew is not
        thread-safe) and is observed as an ordinary crash: replacement
        worker, scheduler retry policy, journaled recovery — the whole
        real path.
        """
        with self._lock:
            self._kill_requests += 1
        self._nudge()

    # -- engine --------------------------------------------------------------

    def _engine_loop(self) -> None:
        crew = WorkerCrew(
            self.work_fn,
            timeout_s=self.timeout_s,
            telemetry=self._on_frame,
            metrics=self.metrics,
        )
        scheduler = TaskScheduler(
            crew,
            retries=self.retries,
            backoff_base_s=self.backoff_base_s,
            jitter_seed=self.jitter_seed,
        )
        try:
            crew.ensure_workers(self.workers)
            while not self._stop.is_set():
                # Drain before feeding: a submit that races the feed
                # leaves its byte behind and wakes the next wait instead
                # of being swallowed.  The step then sleeps until a
                # worker reports or dies, a nudge lands, or a deadline or
                # backoff expires; its interval only bounds how often an
                # idle engine re-checks worker liveness.
                self._drain_wake()
                self._feed(scheduler)
                self._drill(crew)
                for index, _payload, outcome in scheduler.step(wake=self._wake_r):
                    self._complete(index, outcome)
        finally:
            crew.shutdown()

    def _nudge(self) -> None:
        """Wake the engine: one byte on the self-pipe."""
        with self._wake_lock:
            if self._wake_w is None:
                return
            try:
                os.write(self._wake_w, b"\0")
            except BlockingIOError:
                pass  # the pipe is full: a wake is already pending

    def _drain_wake(self) -> None:
        try:
            while os.read(self._wake_r, 4096):
                pass
        except BlockingIOError:
            pass

    def _feed(self, scheduler: TaskScheduler) -> None:
        """Move admitted jobs into the scheduler, at most ``workers`` deep.

        Keeping the scheduler shallow is what makes priorities real: the
        heap reorders everything not yet handed to a worker.
        """
        with self._lock:
            while self._heap and scheduler.outstanding < self.workers:
                _, _, key = heapq.heappop(self._heap)
                job = self._jobs.get(key)
                if job is None or job.state != QUEUED:
                    continue
                job.state = RUNNING
                job.started_s = time.monotonic()
                index = next(self._dispatch_seq)
                self._dispatched[index] = key
                scheduler.add(index, job.task)

    def _drill(self, crew: WorkerCrew) -> None:
        with self._lock:
            kills, self._kill_requests = self._kill_requests, 0
        for _ in range(kills):
            crew.kill_one()

    def _on_frame(self, index: int, frame: dict) -> None:
        with self._lock:
            key = self._dispatched.get(index)
            job = self._jobs.get(key) if key is not None else None
            if job is None:
                return
            self._publish(job, {"event": "progress", "data": frame}, critical=False)

    def _complete(self, index: int, outcome: tuple[str, Any, float]) -> None:
        status, payload, elapsed = outcome
        if status == "ok":
            # Store *before* journaling completion: a crash between the
            # two re-runs the job (idempotent), the reverse order could
            # journal a completion whose result was lost.
            with self._lock:
                key_for_store = self._dispatched.get(index)
            if key_for_store is not None:
                self.cache.store(key_for_store, payload)
        with self._lock:
            key = self._dispatched.pop(index, None)
            job = self._jobs.get(key) if key is not None else None
            if job is None:
                return
            job.finished_s = time.monotonic()
            job.elapsed_s = elapsed
            if status == "ok":
                job.state = DONE
                self.metrics.incr("serve.executed")
                self._service_times.append(
                    job.finished_s - (job.started_s or job.finished_s)
                )
                del self._service_times[:-128]
                self.ledger.done(key)
            elif status == "task-error":
                job.state = FAILED
                job.error = payload
                self.metrics.incr("serve.failed")
                # Deterministic: journal it so a restart reports instead
                # of re-running a config that fails identically.
                self.ledger.done(key, error=payload)
            else:
                job.state = FAILED
                job.error = payload
                self.metrics.incr("serve.failed")
                # Environmental (crash/timeout, retries exhausted): NOT
                # journaled as done — a restart re-admits and re-runs it.
            self._publish(job, {"event": "done", "data": self.job_view(job)}, True)
            job.subscribers.clear()
            job.done_event.set()

    # -- reporting -----------------------------------------------------------

    def stats_view(self) -> dict:
        """The registry snapshot (``/v1/stats``), with the admission
        gauges set: ``serve.depth``, ``serve.budget``, ``serve.workers``,
        ``serve.uptime_s`` and ``serve.jobs.<state>``."""
        with self._lock:
            states = dict.fromkeys(JOB_STATES, 0)
            for job in self._jobs.values():
                states[job.state] += 1
            gauge = self.metrics.gauge
            gauge("serve.depth", self._depth_locked())
            gauge("serve.budget", self.max_queue)
            gauge("serve.workers", self.workers)
            gauge(
                "serve.uptime_s",
                time.monotonic() - self.started_at
                if self.started_at is not None
                else 0.0,
            )
            for state, count in states.items():
                gauge(f"serve.jobs.{state}", count)
            return self.metrics.snapshot()

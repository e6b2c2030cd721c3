"""Parallel experiment execution with deterministic result caching.

Every figure in the paper is a sweep of *independent* stochastic
simulations: each point derives its random streams purely from
``(seed, stream name)`` (see :mod:`repro.sim.rng`), so points can run in
any order, in any process, and produce bit-identical results.  This
module exploits that:

* :class:`ExperimentTask` names one point — a test kind plus an
  :class:`ExperimentConfig` and the experiment keyword arguments — and
  derives a stable content hash from it.
* :class:`ResultCache` persists finished results on disk under that
  hash, so re-running a figure replays cached points instantly.
* :class:`ExperimentRunner` fans pending tasks across supervised
  ``spawn`` workers (a :class:`~repro.core.pool.WorkerCrew` driven by a
  :class:`~repro.core.pool.TaskScheduler`, the same core the experiment
  service runs on), reports per-point timing through an optional
  progress callback, and routes per-point failures into a structured
  :class:`PointOutcome.error` channel instead of letting one diverging
  configuration kill the whole sweep.
* :func:`execute_task` is the one worker function: local sweeps (inline
  or pooled) and the service's workers all run points through it.

Supervision (all opt-in, all deterministic): per-task wall-clock
timeouts, bounded retry with seeded exponential backoff for crashed or
timed-out workers, and a graceful ``KeyboardInterrupt`` path that raises
:class:`~repro.errors.SweepInterrupted` for the CLI to turn into exit
code 130.

The result cache doubles as the sweep's resume record: every finished
point is fsynced into it before the progress callback sees it, so
rerunning an interrupted sweep against the same cache directory replays
exactly the points that finished and runs only the rest.

``jobs=1`` (the default) executes inline in the calling process — no
pool, no pickling — and is the reference behavior: parallel execution is
required to be bit-identical to it.  (Setting a timeout forces the pool
even at ``jobs=1``: only a separate process can be killed mid-task.)

Cache keys cover the policy configuration (class name and every field),
the workload, the system (geometry included), the seed, the test kind,
and the experiment keyword arguments (caps, tolerances, fill fractions),
plus a cache format version.  Change any of these and the key changes;
delete the cache directory to invalidate everything.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import os
import pickle
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from ..errors import ConfigurationError, ExperimentError, SweepInterrupted
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import install_emitter, uninstall_emitter
from .configs import ExperimentConfig
from .experiments import run_allocation_experiment, run_performance_experiment
from .pool import CREW_COUNTERS, TaskScheduler, WorkerCrew

#: Bump when result dataclasses or experiment semantics change shape;
#: old cache entries then miss instead of deserializing stale science.
#: 2: checksummed cache entries; PerformanceResult gained fault fields.
#: 3: PerformanceResult gained trace/metrics fields (repro.obs).
#: 4: PerformanceResult gained the fingerprint timeline (repro.audit).
CACHE_FORMAT_VERSION = 4

#: Test kinds and the §3 procedures they dispatch to.
_EXPERIMENT_KINDS: dict[str, Callable[..., Any]] = {
    "allocation": run_allocation_experiment,
    "performance": run_performance_experiment,
}


def default_cache_dir() -> Path:
    """The default on-disk cache location.

    ``$REPRO_CACHE_DIR`` wins; otherwise ``$XDG_CACHE_HOME/repro`` (or
    ``~/.cache/repro``).
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


# ---------------------------------------------------------------------------
# Tasks and cache keys
# ---------------------------------------------------------------------------


def _canonical(value: Any) -> Any:
    """A JSON-serializable, order-stable projection of a config value."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return [type(value).__name__, fields]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


@dataclass(frozen=True)
class ExperimentTask:
    """One executable sweep point: a test kind, a config, and kwargs.

    ``kwargs`` is stored as a sorted tuple of pairs so tasks stay hashable
    and their cache keys are independent of keyword order.  ``None``
    values are dropped at construction — passing ``fill_fraction=None``
    means the same thing as omitting it, and must hash the same.
    """

    kind: str
    config: ExperimentConfig
    kwargs: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _EXPERIMENT_KINDS:
            raise ExperimentError(f"unknown experiment kind {self.kind!r}")

    @classmethod
    def allocation(cls, config: ExperimentConfig, **kwargs: Any) -> "ExperimentTask":
        """An allocation (fragmentation) test point."""
        return cls("allocation", config, _freeze_kwargs(kwargs))

    @classmethod
    def performance(cls, config: ExperimentConfig, **kwargs: Any) -> "ExperimentTask":
        """A performance (application + sequential) test point."""
        return cls("performance", config, _freeze_kwargs(kwargs))

    def execute(self) -> Any:
        """Run the experiment synchronously in this process."""
        return _EXPERIMENT_KINDS[self.kind](self.config, **dict(self.kwargs))

    @property
    def cache_key(self) -> str:
        """Stable content hash identifying this point's result."""
        payload = json.dumps(
            [
                "repro-experiment",
                CACHE_FORMAT_VERSION,
                self.kind,
                _canonical(self.config),
                _canonical(dict(self.kwargs)),
            ],
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def describe(self) -> str:
        """One-line label for progress reports."""
        return f"{self.kind}: {self.config.describe()}"


def _freeze_kwargs(kwargs: dict[str, Any]) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted((k, v) for k, v in kwargs.items() if v is not None))


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------


#: Magic prefix of a checksummed cache entry (version in the tag).
_CACHE_MAGIC = b"RPRC2\n"

#: Per-process serial for temp-file names: two threads of one process
#: writing the same path concurrently must never share a temp path.
_TEMP_SERIAL = itertools.count()


def atomic_write(path: Path, *chunks: bytes) -> None:
    """Replace ``path`` with ``chunks`` so no reader sees a torn file.

    Safe under concurrent writers: every writer gets a temp name unique
    by pid and per-process serial (pid alone is not enough — the
    experiment service races threads of one process on the same key).
    The data is fsynced before the atomic rename, so a reader — or a
    crash at any instant — sees either the old complete file or the new
    complete one.  The temp file never outlives the call, even when the
    write or the rename fails.
    """
    temp = path.with_name(f"{path.name}.{os.getpid()}.{next(_TEMP_SERIAL)}.tmp")
    try:
        with open(temp, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    finally:
        with contextlib.suppress(OSError):
            temp.unlink()


#: The counters a result cache increments in its owner's registry.
CACHE_COUNTERS = ("core.cache_hits", "core.cache_misses", "core.cache_evictions")


class ResultCache:
    """Pickle-per-key result store with atomic, checksummed writes.

    Entries land through :func:`atomic_write`, so readers never observe
    a half-written entry; each entry carries a SHA-256 of its payload,
    verified on every load.  Corrupt, truncated,
    or tampered entries are treated as misses — and *evicted*, so a bad
    entry costs one recompute instead of a validation failure on every
    subsequent run.  The cache is an accelerator, not a source of truth.

    Loads count into ``metrics`` (the owner's registry; a private one
    when omitted) as the :data:`CACHE_COUNTERS`.
    """

    def __init__(
        self, directory: str | Path, metrics: MetricsRegistry | None = None
    ) -> None:
        self.directory = Path(directory)
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def load(self, key: str) -> Any | None:
        """The cached result for ``key``, or ``None`` on a miss."""
        path = self.path(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            self.metrics.incr("core.cache_misses")
            return None
        try:
            magic, digest, payload = (
                blob[: len(_CACHE_MAGIC)],
                blob[len(_CACHE_MAGIC) : len(_CACHE_MAGIC) + 64],
                blob[len(_CACHE_MAGIC) + 64 :],
            )
            if magic != _CACHE_MAGIC:
                raise ValueError("bad cache magic")
            if hashlib.sha256(payload).hexdigest().encode() != digest:
                raise ValueError("cache checksum mismatch")
            result = pickle.loads(payload)
        except Exception:
            # A corrupt or truncated entry is a miss, never an error —
            # pickle raises far more than PickleError on garbage bytes
            # (ValueError, KeyError, UnicodeDecodeError, ImportError...).
            # Evict it so the recompute's store replaces it for good.
            self.metrics.incr("core.cache_evictions")
            with contextlib.suppress(OSError):
                path.unlink()
            self.metrics.incr("core.cache_misses")
            return None
        self.metrics.incr("core.cache_hits")
        return result

    def store(self, key: str, result: Any) -> None:
        """Persist ``result`` under ``key`` (atomic and fsynced, last
        writer wins; see :func:`atomic_write`)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest().encode()
        atomic_write(self.path(key), _CACHE_MAGIC, digest, payload)


# ---------------------------------------------------------------------------
# Outcomes and the runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointOutcome:
    """What happened to one task: a result, or a structured failure.

    Attributes:
        index: the task's position in the submitted sequence (outcomes
            are returned in submission order regardless of completion
            order).
        result: the experiment result, or ``None`` if the point failed.
        error: ``None`` on success; otherwise the worker's formatted
            traceback — the sweep's other points still complete.
        elapsed_s: wall-clock seconds this point took (0 for cache hits).
        from_cache: True when the result was replayed from the cache.
    """

    index: int
    task: ExperimentTask
    result: Any | None
    error: str | None = None
    elapsed_s: float = 0.0
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


#: Every counter a runner lists from construction on.
RUNNER_COUNTERS = ("core.executed", "core.failed", *CACHE_COUNTERS, *CREW_COUNTERS)

#: Progress callback: (outcome, completed count, total count).
ProgressCallback = Callable[[PointOutcome, int, int], None]


def execute_task(task: ExperimentTask) -> tuple[str, Any, float]:
    """Execute one task; never raise — failures travel as data.

    Returns ``("ok", result, elapsed_s)``, or ``("task-error",
    traceback, elapsed_s)`` when the experiment itself raised.  A task
    error is deterministic — the same configuration fails the same way
    every time — so it is never retried; that sets it apart from the
    scheduler's own ``"error"`` outcome (worker crash or timeout with
    retries exhausted).

    Runs in spawned workers for pooled sweeps and for the experiment
    service, and inline for ``jobs=1``; every path shares it so serial
    and parallel execution are identical.
    """
    start = time.perf_counter()
    try:
        result = task.execute()
        return ("ok", result, time.perf_counter() - start)
    except Exception:  # noqa: BLE001 - structured failure channel
        return ("task-error", traceback.format_exc(), time.perf_counter() - start)


class ExperimentRunner:
    """Executes independent experiment tasks, in parallel, with caching.

    Args:
        jobs: worker processes.  1 (default) runs inline in this process;
            ``None`` or 0 means one per CPU.
        cache_dir: result cache directory; ``None`` disables caching.
            It is also the sweep's resume record: rerun an interrupted
            sweep against the same directory and only unfinished points
            execute.
        progress: optional per-point completion callback.
        timeout_s: per-task wall-clock budget.  A task over budget has
            its worker killed (and retried if ``retries`` allows); a
            timeout forces pool execution even at ``jobs=1``.
        retries: extra attempts after a worker crash or timeout.
            Deterministic task exceptions are *not* retried — the same
            configuration fails the same way every time.
        backoff_base_s: first retry delay; doubles per attempt, plus
            seeded jitter.
        telemetry: optional live-progress callback ``(task index,
            frame)``; frames come from running experiments (see
            :mod:`repro.obs.telemetry`), streamed over the supervision
            pipes for pool workers and delivered directly for inline
            execution.

    Every count across the runner's lifetime (all ``run`` calls) lands
    in ``metrics``: ``core.executed``, ``core.failed``, the cache's and
    the crew's counters, and the total ``core.elapsed_s``.  A point
    replayed from the cache is a ``core.cache_hits``: :meth:`run` loads
    each key once and nothing else loads from the runner's cache.
    """

    def __init__(
        self,
        jobs: int | None = 1,
        cache_dir: str | Path | None = None,
        progress: ProgressCallback | None = None,
        timeout_s: float | None = None,
        retries: int = 0,
        backoff_base_s: float = 0.5,
        telemetry: Callable[[int, dict], None] | None = None,
    ) -> None:
        if jobs is not None and jobs < 0:
            raise ConfigurationError(f"jobs must be >= 0: {jobs}")
        if not jobs:
            jobs = os.cpu_count() or 1
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigurationError(f"timeout must be positive: {timeout_s}")
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0: {retries}")
        self.jobs = jobs
        self.metrics = MetricsRegistry()
        for name in RUNNER_COUNTERS:
            self.metrics.incr(name, 0)
        self.metrics.add("core.elapsed_s", 0.0)
        self.cache = ResultCache(cache_dir, self.metrics) if cache_dir else None
        self.progress = progress
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.telemetry = telemetry

    # -- execution ---------------------------------------------------------

    def run(self, tasks: Sequence[ExperimentTask]) -> list[PointOutcome]:
        """Execute every task; return outcomes in submission order.

        Cached points are replayed without executing; pending points fan
        across the supervised workers (or run inline for ``jobs=1`` with
        no timeout).  A failing point yields an outcome with ``error``
        set — it never raises here and never interrupts sibling points.

        Raises:
            SweepInterrupted: on ``KeyboardInterrupt``.  Every point
                finished so far is already in the result cache (stored
                point by point); the exception names the cache directory,
                or ``None`` when caching is off and nothing was kept.
        """
        started = time.perf_counter()
        outcomes: list[PointOutcome | None] = [None] * len(tasks)
        pending: list[tuple[int, ExperimentTask]] = []
        total = len(tasks)
        completed = 0

        for index, task in enumerate(tasks):
            cached = self.cache.load(task.cache_key) if self.cache else None
            if cached is not None:
                outcomes[index] = PointOutcome(
                    index, task, cached, from_cache=True
                )
                completed += 1
                self._report(outcomes[index], completed, total)
            else:
                pending.append((index, task))

        use_pool = bool(pending) and (
            (self.jobs > 1 and len(pending) > 1) or self.timeout_s is not None
        )
        finished = (
            self._run_pooled(pending) if use_pool else self._run_inline(pending)
        )

        try:
            for index, task, (status, payload, elapsed) in finished:
                if status == "ok":
                    outcome = PointOutcome(index, task, payload, elapsed_s=elapsed)
                    self.metrics.incr("core.executed")
                    if self.cache:
                        self.cache.store(task.cache_key, payload)
                else:
                    outcome = PointOutcome(
                        index, task, None, error=payload, elapsed_s=elapsed
                    )
                    self.metrics.incr("core.failed")
                outcomes[index] = outcome
                completed += 1
                self._report(outcome, completed, total)
        except KeyboardInterrupt:
            # Report how far we got; the CLI maps this to the
            # conventional exit code 130.
            self.metrics.add("core.elapsed_s", time.perf_counter() - started)
            partial_dir = self.cache.directory if self.cache else None
            raise SweepInterrupted(partial_dir, completed, total) from None
        finally:
            # Any abnormal exit (interrupt, a failing progress callback,
            # a cache-store error) must still tear the workers down:
            # closing the generator runs its ``finally`` and reaps every
            # spawned worker, so repeated in-process sweeps leak no child
            # processes.
            finished.close()

        self.metrics.add("core.elapsed_s", time.perf_counter() - started)
        return [o for o in outcomes if o is not None]

    def results(self, tasks: Sequence[ExperimentTask]) -> list[Any]:
        """Like :meth:`run`, but unwrap results and raise on any failure.

        All points complete (and successful ones are cached) before the
        aggregated :class:`ExperimentError` is raised, so a re-run only
        repeats the diverging configurations.
        """
        outcomes = self.run(tasks)
        failures = [o for o in outcomes if not o.ok]
        if failures:
            details = "\n\n".join(
                f"[{o.index}] {o.task.describe()}\n{o.error}" for o in failures
            )
            raise ExperimentError(
                f"{len(failures)} of {len(outcomes)} sweep points failed:\n"
                f"{details}"
            )
        return [o.result for o in outcomes]

    def summary(self) -> str:
        """The end-of-sweep stderr report, rendered from the counters::

            runner: 3 executed, 9 cached, 0 failed (1.2s)
            runner: cache: 9 hits, 3 misses, 0 evicted

        The cache line is left out when caching is off.
        """
        counters = self.metrics.counters
        lines = [
            f"runner: {counters['core.executed']} executed, "
            f"{counters['core.cache_hits']} cached, "
            f"{counters['core.failed']} failed "
            f"({self.metrics.totals['core.elapsed_s']:.1f}s)"
        ]
        if self.cache is not None:
            hits = counters["core.cache_hits"]
            misses = counters["core.cache_misses"]
            lines.append(
                f"runner: cache: {hits} hit{'s' if hits != 1 else ''}, "
                f"{misses} miss{'es' if misses != 1 else ''}, "
                f"{counters['core.cache_evictions']} evicted"
            )
        return "\n".join(lines)

    # -- internals ---------------------------------------------------------

    def _run_pooled(self, pending):
        """Execute pending tasks on a supervised crew of spawn workers.

        Feeds every task to a :class:`~repro.core.pool.TaskScheduler`
        and steps it until nothing is outstanding, yielding outcomes in
        completion order.  The crew is shut down — every worker reaped —
        however the generator exits, including an early ``close()``.
        """
        crew = WorkerCrew(
            execute_task,
            timeout_s=self.timeout_s,
            telemetry=self.telemetry,
            metrics=self.metrics,
        )
        scheduler = TaskScheduler(
            crew, retries=self.retries, backoff_base_s=self.backoff_base_s
        )
        for index, task in pending:
            scheduler.add(index, task)
        try:
            crew.ensure_workers(min(self.jobs, len(pending)))
            while scheduler.outstanding > 0:
                yield from scheduler.step()
        finally:
            crew.shutdown()

    def _run_inline(self, pending):
        """Execute pending tasks in this process, one at a time.

        When a telemetry callback is wired, each task runs with an
        emitter installed that forwards its frames (tagged with the
        task's index) straight to the callback — the inline counterpart
        of the pool workers' pipe-backed emitter.
        """
        for index, task in pending:
            if self.telemetry is None:
                yield index, task, execute_task(task)
                continue
            install_emitter(lambda frame, _i=index: self.telemetry(_i, frame))
            try:
                yield index, task, execute_task(task)
            finally:
                uninstall_emitter()

    def _report(self, outcome: PointOutcome, completed: int, total: int) -> None:
        if self.progress is not None:
            self.progress(outcome, completed, total)


def execute_all(
    tasks: Sequence[ExperimentTask], runner: ExperimentRunner | None = None
) -> list[Any]:
    """Run tasks through ``runner`` (or a throwaway serial one); unwrap.

    This is the sweep modules' entry point: passing ``runner=None``
    preserves the historical serial, uncached behavior exactly.
    """
    runner = runner or ExperimentRunner()
    return runner.results(tasks)

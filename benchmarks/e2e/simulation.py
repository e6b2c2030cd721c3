"""Simulation workloads: Figure 6 points and allocation tests, in-process.

Both call only public entry points: ``figure6``, ``ExperimentTask`` and
``ExperimentRunner``.  ``measure`` times whole cold passes, scaled by
the host speed around them (``hostspeed.py``), until the next one would
end after ``seconds``, and replays every point from the pass's result
cache; ``trace`` runs one untraced and one traced pass of
the same points and attributes the traced one to layers.
"""

from __future__ import annotations

import itertools
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

from repro.core.comparison import figure6
from repro.core.configs import SystemConfig
from repro.core.runner import ExperimentRunner, ExperimentTask, PointOutcome
from repro.errors import ExperimentError
from repro.serve.service import result_digest

from .common import (
    DEFAULT_SEED,
    ROOT,
    SETUP_STARTS,
    LayerReport,
    Run,
    store_times_ms,
    child_env,
    time_boxed,
)
from .layers import LayerClock
from .tasks import alloc_tasks, fig6_tasks
from .tracefile import TraceWriter

_perf = time.perf_counter

FIG6_RESULTS = ROOT / "results" / "fig6_comparison.txt"

#: Replays of the whole pass from its result cache after each cold pass.
HIT_REPEATS = 25
#: An in-process pass runs the host-speed kernel after the first point
#: that ends this many seconds after the last kernel run.
SPLIT_S = 1.0


def _result_ops(result: Any) -> int:
    counts = getattr(result, "operation_counts", None)
    return sum(counts.values()) if counts is not None else result.operations


class _PointWorkload:
    """Shared loop of the simulation workloads."""

    name = ""

    def point_tasks(self, seed: int) -> list[tuple[str, ExperimentTask]]:
        raise NotImplementedError

    def probe_code(self, seed: int) -> str:
        """Python source that imports ``tasks`` and builds ``point_tasks(seed)``."""
        raise NotImplementedError

    def run_pass(self, run: Run, cache_dir: Path,
                 between_points: Callable[[], None] | None = None,
                 ) -> tuple[float, list[PointOutcome]]:
        """Every point through a runner caching in ``cache_dir``; checked.

        On an empty cache this computes every point (a cold pass); on a
        warm one it answers every point from the cache.  The points run
        in this process, and ``between_points`` is called after each.
        """
        raise NotImplementedError

    @staticmethod
    def runner(cache_dir: Path, outcomes: list[PointOutcome],
               between_points: Callable[[], None] | None) -> ExperimentRunner:
        """An in-process runner that collects ``outcomes`` as points end."""

        def progress(outcome: PointOutcome, done: int, total: int) -> None:
            outcomes.append(outcome)
            if between_points is not None:
                between_points()

        return ExperimentRunner(jobs=1, cache_dir=cache_dir, progress=progress)

    def setup(self, run: Run, workdir: Path) -> None:
        """Fresh interpreter, import and task construction, ``SETUP_STARTS`` times."""
        command = [sys.executable, "-c", self.probe_code(run.seed)]
        run.timer.start()
        for _ in range(SETUP_STARTS):
            probe = subprocess.run(
                command, cwd=ROOT, env=child_env(), capture_output=True,
                text=True, timeout=120,
            )
            run.sample_timed("setup_s", run.timer.split())
            run.attempt(None if probe.returncode == 0
                        else f"setup probe exited {probe.returncode}: "
                             f"{probe.stderr.strip()[-300:]}")

    def check_outcomes(
        self, run: Run, outcomes: list[PointOutcome], ids: list[str]
    ) -> None:
        for outcome in outcomes:
            point_id = ids[outcome.index]
            if not outcome.ok:
                run.attempt(f"{point_id}: {outcome.error.strip().splitlines()[-1]}")
                continue
            run.attempt(
                self.result_problem(point_id, outcome.result)
                or run.digest_problem(point_id, result_digest(outcome.result))
            )

    def result_problem(self, point_id: str, result: Any) -> str | None:
        return None

    def measure(self, run: Run, seconds: float, workdir: Path) -> None:
        ids = [point_id for point_id, _ in self.point_tasks(run.seed)]
        run.combined_ids = ids
        counter = itertools.count()

        def one_pass() -> None:
            cache_dir = workdir / f"pass{next(counter)}"
            timed = [0.0, 0.0]  # raw, scaled

            def split() -> None:
                for index, seconds in enumerate(run.timer.split()):
                    timed[index] += seconds

            def between_points() -> None:
                if run.timer.elapsed() >= SPLIT_S:
                    split()

            run.timer.start()
            self.run_pass(run, cache_dir, between_points=between_points)
            split()
            run.sample_timed("wall_s", (timed[0], timed[1]))
            for _ in range(HIT_REPEATS):
                hit_s, outcomes = self.run_pass(run, cache_dir)
                run.sample("hit_ms", hit_s * 1e3)
                run.attempt(None if all(o.from_cache for o in outcomes)
                            else "a finished point was not answered from the cache")
            shutil.rmtree(cache_dir, ignore_errors=True)

        time_boxed(seconds, one_pass, max_passes=None)

    def trace(self, run: Run, workdir: Path, writer: TraceWriter) -> LayerReport:
        """One untraced and one traced cold pass of the same points."""
        ids = [point_id for point_id, _ in self.point_tasks(run.seed)]
        run.combined_ids = ids
        untraced_s, outcomes = self.run_pass(run, workdir / "untraced")
        elapsed = sum(o.elapsed_s for o in outcomes)
        dispatch_share = max(0.0, untraced_s - elapsed) / untraced_s
        clock = LayerClock(frozenset({"core.execute", "core.cache_store"}))
        with clock.installed():
            start = _perf()
            traced_s, traced = self.run_pass(run, workdir / "traced")
            end = _perf()
        totals = clock.totals()
        pass_id = writer.span(f"{self.name} pass", "benchmark", start, end)
        names = {task.cache_key: point_id for point_id, task in self.point_tasks(run.seed)}
        for span in totals.spans:
            if span.name == "core.execute":
                writer.span(names.get(span.key, span.name), "points", span.start,
                            span.end, key=span.key, parent=pass_id)
        return LayerReport(
            totals=totals, blocking_s=traced_s, traced_s=traced_s,
            untraced_s=untraced_s, ops=sum(_result_ops(o.result) for o in traced if o.ok),
            dispatch_share=dispatch_share, store_ms=store_times_ms(totals),
        )


class Fig6Workload(_PointWorkload):
    """``figure6`` in-process through a caching runner, as ``pytest benchmarks/`` runs it."""

    def __init__(self, name: str, workloads: tuple[str, ...],
                 scale: float = 0.25, cap_ms: float = 90_000.0) -> None:
        self.name = name
        self.workloads = workloads
        self.scale = scale
        self.cap_ms = cap_ms
        self._expected = None

    def point_tasks(self, seed: int) -> list[tuple[str, ExperimentTask]]:
        return fig6_tasks(self.workloads, self.scale, self.cap_ms, seed)

    def probe_code(self, seed: int) -> str:
        return ("from benchmarks.e2e.tasks import fig6_tasks\n"
                f"fig6_tasks({self.workloads!r}, {self.scale!r}, {self.cap_ms!r}, {seed})")

    def run_pass(self, run: Run, cache_dir: Path,
                 between_points: Callable[[], None] | None = None):
        points = self.point_tasks(run.seed)
        outcomes: list[PointOutcome] = []
        runner = self.runner(cache_dir, outcomes, between_points)
        start = _perf()
        try:
            cells = figure6(
                SystemConfig(scale=self.scale), run.seed,
                app_cap_ms=self.cap_ms, seq_cap_ms=self.cap_ms,
                workloads=self.workloads, runner=runner,
            )
        except ExperimentError:
            cells = None  # the failed outcomes are counted below
        wall = _perf() - start
        keys = [task.cache_key for _, task in points]
        if [o.task.cache_key for o in outcomes] != keys:
            run.attempt("figure6 ran other points than the benchmark generated")
        self.check_outcomes(run, outcomes, [point_id for point_id, _ in points])
        if cells is not None:
            self.check_cells(run, cells)
        return wall, outcomes

    def result_problem(self, point_id: str, result: Any) -> str | None:
        for phase in (result.application, result.sequential):
            if not 0.0 <= phase.percent <= 100.0:
                return f"{point_id}: utilization {phase.percent} out of range"
        return None

    def check_cells(self, run: Run, cells) -> None:
        """At the recorded configuration, the cells must print as in results/."""
        if (run.seed, self.scale, self.cap_ms) != (DEFAULT_SEED, 0.25, 90_000.0):
            return
        if self._expected is None:
            self._expected = read_fig6_results()
        for cell in cells:
            for figure, value in (("sequential", cell.sequential_percent),
                                  ("application", cell.application_percent)):
                expected = self._expected.get((figure, cell.workload, cell.policy_label))
                if expected != f"{value:.1f}":
                    run.attempt(
                        f"{cell.workload}/{cell.policy_label} {figure} {value:.1f}% "
                        f"!= {FIG6_RESULTS.name} {expected}%"
                    )


def read_fig6_results() -> dict[tuple[str, str, str], str]:
    """``(figure, workload, label) -> "12.3"`` from the committed Figure 6."""
    cells: dict[tuple[str, str, str], str] = {}
    figure = workload = ""
    for line in FIG6_RESULTS.read_text().splitlines():
        if line.startswith("Figure 6a"):
            figure = "sequential"
        elif line.startswith("Figure 6b"):
            figure = "application"
        elif line.startswith("    "):
            parts = line.split()
            cells[(figure, workload, " ".join(parts[:-2]))] = parts[-1].rstrip("%")
        elif line.startswith("  "):
            workload = line.strip()
    return cells


#: Allocation tests: TS at the throughput scale, TP and SC at full scale,
#: as the Figure 1/4 and Table 3 benchmarks run them.
ALLOC_POINTS = (("TS", 0.25), ("TP", 1.0), ("SC", 1.0))


class AllocWorkload(_PointWorkload):
    """The §5 policies' allocation tests through an in-process ``ExperimentRunner``.

    Not through a worker pool: on a 2-vCPU host, two busy workers ran at
    a speed that the host-speed kernel in this process did not follow,
    and the pool is exercised by ``serve_mix`` already.
    """

    name = "alloc_tests"

    def __init__(self, points: tuple[tuple[str, float], ...] = ALLOC_POINTS) -> None:
        self.points = points

    def point_tasks(self, seed: int) -> list[tuple[str, ExperimentTask]]:
        return alloc_tasks(self.points, seed)

    def probe_code(self, seed: int) -> str:
        return ("from benchmarks.e2e.tasks import alloc_tasks\n"
                f"alloc_tasks({self.points!r}, {seed})")

    def run_pass(self, run: Run, cache_dir: Path,
                 between_points: Callable[[], None] | None = None):
        points = self.point_tasks(run.seed)
        runner = self.runner(cache_dir, [], between_points)
        start = _perf()
        outcomes = runner.run([task for _, task in points])
        wall = _perf() - start
        self.check_outcomes(run, outcomes, [point_id for point_id, _ in points])
        return wall, outcomes

    def result_problem(self, point_id: str, result: Any) -> str | None:
        frag = result.fragmentation
        if not (0.0 <= frag.internal_percent <= 100.0
                and 0.0 <= frag.external_percent <= 100.0):
            return f"{point_id}: fragmentation out of range"
        return None

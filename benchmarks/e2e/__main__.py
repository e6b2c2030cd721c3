"""Command line of the end-to-end benchmark.

    python -m benchmarks.e2e                         # every workload, untraced then traced
    python -m benchmarks.e2e --workload fig6_ts --seed 7 --seconds 25 --trace 0
    python -m benchmarks.e2e --compare ../parent/src  # paired parent/change runs
    python -m benchmarks.e2e --record-golden          # rewrite golden.json
    python -m benchmarks.e2e --record-noise           # rewrite noise.json

``repro`` is imported from ``PYTHONPATH`` when it is set there, and from
this checkout's ``src/`` otherwise.  The last line of a single-workload
run is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
When more than one workload or mode is selected, each runs in its own
interpreter, so that ``peak_rss_mb`` is that workload's own.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORK = ROOT / ".e2e"

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the parent of descendants whose own parent exits (Linux).

    ``multiprocessing`` starts a resource tracker that outlives the
    process that started it, and ``repro serve`` leaves its own behind
    when it stops; adopted here, they can be waited for before exit.
    """
    try:
        ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except (OSError, ValueError):
            continue
        # pid (comm) state ppid ...; comm may hold spaces and parentheses
        if stat.rsplit(")", 1)[-1].split()[1] == me:
            pids.append(int(entry))
    return pids


def reap_children(grace_s: float = 20.0) -> None:
    """Stop this process's resource tracker and wait for every child to end.

    Children still running after ``grace_s`` are killed, then waited for.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() < deadline:
            time.sleep(0.05)
            continue
        for child in _children():
            try:
                os.kill(child, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def _import_repro() -> None:
    if importlib.util.find_spec("repro") is None:
        sys.path.insert(0, str(ROOT / "src"))
    if importlib.util.find_spec("repro") is None:
        raise SystemExit("e2e: cannot import repro: no src/ in this checkout "
                         "and none on PYTHONPATH")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default 1991)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer only")
    parser.add_argument("--compare", metavar="OTHER_SRC",
                        help="10 paired runs per workload against the src/ of another commit")
    parser.add_argument("--record-golden", action="store_true",
                        help="recompute golden.json at the default seed")
    parser.add_argument("--record-noise", action="store_true",
                        help="run two sets of 10 seeds per workload into noise.json")
    return parser


def run_one(workload, run, seconds: float, traced: bool, workdir: Path,
            trace_path: Path | None = None) -> tuple[dict, dict]:
    """Measure ``workload`` into ``run``; returns ``(metrics, unbounded extras)``.

    Untraced runs give the end-to-end metrics, traced runs the per-layer
    ones (and write the Chrome trace to ``trace_path``).  An exception
    is counted as a failed operation, never raised.
    """
    from . import metrics as metric_defs
    from .tracefile import TraceWriter
    from .common import median

    if traced:
        writer = TraceWriter()
        try:
            report = workload.trace(run, workdir, writer)
        except Exception:  # noqa: BLE001 - reported as a failed operation
            run.attempt("traced pass raised:\n" + traceback.format_exc())
            return {}, {}
        finally:
            if trace_path is not None:
                writer.write(trace_path)
        extra = {f"serve.{part}_ms_p50": (median(values), "ms", len(values))
                 for part, values in report.detail_ms.items()}
        return metric_defs.per_layer(report), extra
    try:
        workload.setup(run, workdir)
        workload.measure(run, seconds, workdir)
    except Exception:  # noqa: BLE001 - reported as a failed operation
        run.attempt("run raised:\n" + traceback.format_exc())
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    return metric_defs.end_to_end(run), metric_defs.supplementary(run)


def run_here(name: str, trace: int, seed: int, seconds: float,
             units: dict[str, str]) -> tuple[int, int, dict]:
    """One workload and mode in this process: ``(attempted, failed, metrics)``."""
    from . import metrics as metric_defs
    from .common import Run, load_golden
    from .workloads import WORKLOADS

    workdir = WORK / f"work-{os.getpid()}"
    run = Run(name, seed, golden=load_golden(name, seed))
    try:
        values, extra = run_one(
            WORKLOADS[name](), run, seconds, bool(trace), workdir,
            trace_path=WORK / f"trace-{name}-seed{seed}.json",
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(metric_defs.render(name, seed, run, values, units, extra), flush=True)
    metrics = {key: {"value": value, "unit": units[key]}
               for key, (value, _n) in values.items()}
    return run.attempted, run.failed, metrics


def run_in_children(names: list[str], modes: list[int], seed: int,
                    seconds: float) -> tuple[int, int, dict]:
    """Each workload and mode in its own interpreter; metrics keyed ``workload.metric``."""
    from .compare import invoke

    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        for trace in modes:
            try:
                result = invoke(name, seed, seconds, trace, echo=True)
            except (RuntimeError, ValueError, OSError, subprocess.SubprocessError) as error:
                print(f"e2e: {name} --trace {trace}: {error}", file=sys.stderr)
                attempted += 1
                failed += 1
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}.{key}": value
                            for key, value in result["metrics"].items()})
    return attempted, failed, metrics


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    _import_repro()
    from . import metrics as metric_defs
    from .common import DEFAULT_SEED
    from .workloads import WORKLOADS

    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"e2e: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = metric_defs.declared()
    seconds = args.seconds or float(declared["run_seconds"])
    if args.compare:
        from .compare import compare

        return compare(Path(args.compare), args.workload, seconds, declared)
    if args.record_golden:
        from .record import record_golden

        return record_golden()
    if args.record_noise:
        from .record import record_noise

        return record_noise(seconds, declared)

    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [0, 1] if args.trace is None else [args.trace]
    if len(names) * len(modes) > 1:
        attempted, failed, combined = run_in_children(names, modes, seed, seconds)
    else:
        attempted, failed, combined = run_here(names[0], modes[0], seed, seconds, units)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": max(1, attempted),
        "failed": failed if attempted else 1,
        "metrics": combined,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    adopt_orphans()
    try:
        status = main()
    finally:
        reap_children()
    sys.exit(status)

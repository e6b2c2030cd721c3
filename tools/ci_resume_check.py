#!/usr/bin/env python
"""CI crash/resume check: kill a sweep mid-flight, resume it, compare.

This is the end-to-end guarantee behind resuming a sweep by rerunning
it against the same ``--cache-dir``: a sweep that dies abruptly (here:
SIGKILL, the harshest case — no atexit handlers, no signal handlers, no
flush) must resume from the result cache it was filling and finish with
results bit-identical to a sweep that was never interrupted.

The script runs itself as a child (``--child <dir>``) executing a small
performance sweep against a fresh cache directory, polls the directory
until at least one result entry has been stored (but not all), SIGKILLs
the child, then reruns the sweep in-process against the same cache and
compares against an uninterrupted reference.

Exit status 0 on success; 1 with a diagnostic on any violation.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Runnable from a checkout without an installed package.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

SEEDS = (7, 8, 9, 10)
POLL_S = 0.05
KILL_DEADLINE_S = 300.0


def build_tasks():
    from repro.core.configs import ExperimentConfig, FixedPolicy, SystemConfig
    from repro.core.runner import ExperimentTask

    return [
        ExperimentTask.performance(
            ExperimentConfig(
                policy=FixedPolicy(),
                workload="TS",
                system=SystemConfig(scale=0.02),
                seed=seed,
            ),
            app_cap_ms=20_000.0,
            seq_cap_ms=10_000.0,
        )
        for seed in SEEDS
    ]


def run_child(cache_dir: str) -> int:
    from repro.core.runner import ExperimentRunner

    runner = ExperimentRunner(jobs=1, cache_dir=cache_dir)
    runner.results(build_tasks())
    return 0


def completed_points(cache_dir: Path) -> int:
    """Result entries stored so far (temp files are named ``*.tmp``)."""
    return len(list(cache_dir.glob("*.pkl")))


def main() -> int:
    if len(sys.argv) > 2 and sys.argv[1] == "--child":
        return run_child(sys.argv[2])

    cache_dir = Path(tempfile.mkdtemp(prefix="repro-resume-check-"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                      env.get("PYTHONPATH", "")])
    )
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child", str(cache_dir)],
        env=env,
    )

    killed = False
    deadline = time.monotonic() + KILL_DEADLINE_S
    while time.monotonic() < deadline:
        if child.poll() is not None:
            break
        done = completed_points(cache_dir)
        if 1 <= done < len(SEEDS):
            child.send_signal(signal.SIGKILL)
            child.wait()
            killed = True
            break
        time.sleep(POLL_S)
    else:
        child.kill()
        child.wait()
        print("FAIL: sweep stored no result before the deadline")
        return 1

    survivors = completed_points(cache_dir)
    if killed:
        print(
            f"killed child pid {child.pid} (SIGKILL) after "
            f"{survivors}/{len(SEEDS)} points were stored"
        )
    else:
        print(
            "note: child finished before the kill window; resume will "
            "replay every point"
        )

    from repro.core.runner import ExperimentRunner

    resumed = ExperimentRunner(jobs=1, cache_dir=cache_dir)
    resumed_results = resumed.results(build_tasks())
    reference = ExperimentRunner(jobs=1).results(build_tasks())

    if resumed_results != reference:
        print("FAIL: resumed sweep results differ from an uninterrupted run")
        return 1
    replayed = resumed.metrics.counters["core.cache_hits"]
    if replayed < survivors:
        print(
            f"FAIL: only {replayed} points replayed from the "
            f"cache; {survivors} were stored before the kill"
        )
        return 1
    print(
        f"OK: resumed sweep is bit-identical ({replayed} "
        f"replayed, {resumed.metrics.counters['core.executed']} re-run)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

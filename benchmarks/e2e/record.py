"""Rewrite the benchmark's records: ``golden.json`` and ``noise.json``.

``golden.json`` holds the result digest of every point each workload
computes at the default seed (for ``serve_mix``, every new point of the
schedule, in schedule order).  A run at that seed counts any other
digest as a failed operation.

``noise.json`` holds two sets of runs of the same code, ten seeds per
workload each: per end-to-end metric the median, the interquartile
range as a share of the median, and the difference between the sets'
medians.  The bounds in ``BENCHMARK.json`` are checked against it.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import time
from pathlib import Path

from repro.core.runner import ExperimentRunner
from repro.serve.codec import spec_to_task
from repro.serve.service import result_digest

from .common import DEFAULT_SEED, GOLDEN_PATH, SETUP_STARTS, Run
from .compare import invoke, quartiles
from .hostspeed import REF_S
from .serve_mix import serve_schedule
from .workloads import WORKLOADS

NOISE_PATH = Path(__file__).with_name("noise.json")
#: Runs (seeds 1..RUNS) per workload in each of the two sets.
RUNS = 10
WORK = Path(__file__).resolve().parents[2] / ".e2e" / "record"


def record_golden() -> int:
    points: dict[str, dict[str, str]] = {}
    try:
        for name in ("fig6_ts", "fig6_tpsc", "alloc_tests"):
            run = Run(name, DEFAULT_SEED)
            WORKLOADS[name]().run_pass(run, WORK / name)
            if run.failed:
                print(f"{name}: {run.problems}")
                return 1
            points[name] = run.digests
        new_points = {}
        for block in serve_schedule(DEFAULT_SEED):
            for rnd in block:
                if rnd.kind != "repeat":
                    new_points.update((p.id, p.spec) for p in rnd.points)
        outcomes = ExperimentRunner(jobs=2).run(
            [spec_to_task(spec) for spec in new_points.values()]
        )
        points["serve_mix"] = {
            point_id: result_digest(outcome.result)
            for point_id, outcome in zip(new_points, outcomes)
        }
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    GOLDEN_PATH.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "points": points}, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH} ({sum(map(len, points.values()))} points)")
    return 0


def _host() -> str:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"{os.cpu_count()} vCPU {model}, Python {platform.python_version()}"


def record_noise(seconds: float, declared: dict) -> int:
    """Two sets of ``RUNS`` seeds per workload; write the spread record."""
    metrics = declared["end_to_end"]
    sets = []
    for _ in range(2):
        values = {w["name"]: {m["name"]: [] for m in metrics}
                  for w in declared["workloads"]}
        for name in values:
            for seed in range(1, RUNS + 1):
                result = invoke(name, seed, seconds, 0)
                if result["failed"]:
                    print(f"{name} seed {seed}: {result['failed']} failed operations")
                    return 1
                for metric in metrics:
                    values[name][metric["name"]].append(
                        result["metrics"][metric["name"]]["value"])
        sets.append(values)
    record: dict = {
        "host": _host(),
        "date": time.strftime("%Y-%m-%d"),
        "run_seconds": seconds,
        "setup_starts": SETUP_STARTS,
        "kernel_ref_s": REF_S,
        "seeds": list(range(1, RUNS + 1)),
        "workloads": {},
    }
    worst = {}
    for name in sets[0]:
        rows = {}
        for metric in metrics:
            key = metric["name"]
            summaries = []
            for values in sets:
                q1, med, q3 = quartiles(values[name][key])
                summaries.append({"median": med, "iqr_share": (q3 - q1) / med,
                                  "values": values[name][key]})
            shift = summaries[1]["median"] / summaries[0]["median"] - 1.0
            rows[key] = {"set1": summaries[0], "set2": summaries[1],
                         "set_to_set": shift, "bound": metric["bound"]}
            worst[key] = max(worst.get(key, 0.0), abs(shift),
                             summaries[0]["iqr_share"], summaries[1]["iqr_share"])
        record["workloads"][name] = rows
    record["widest_spread_or_shift"] = worst
    NOISE_PATH.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(worst, indent=1))
    return 0

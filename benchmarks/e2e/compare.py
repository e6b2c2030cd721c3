"""Paired parent/change runs with a verdict per metric and workload.

``python -m benchmarks.e2e --compare OTHER_SRC`` runs this checkout's
benchmark code twice per pair: once importing ``repro`` from
``OTHER_SRC`` (the parent) and once from this checkout's ``src/`` (the
change).  Only ``PYTHONPATH`` differs.  Pairs alternate which side runs
first and use one seed per pair, so both sides see identical inputs.

Per metric and workload the report gives each side's median and
quartiles, the fraction of pairs the change won, and a verdict:

* ``gain`` — the change won at least 9 of 10 pairs and the medians
  differ by more than the parent's own interquartile range;
* ``no worse`` — the change's median is within the metric's bound;
* ``worse`` — it is not, and the parent's spread is within the bound;
* ``unresolved`` — the parent's spread is wider than the bound and not
  every change run beats every parent run.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from .common import ROOT, child_env

#: Parent/change pairs per workload.
PAIRS = 10


def invoke(workload: str, seed: int, seconds: float, trace: int,
           src: Path | None = None, echo: bool = False) -> dict:
    """One benchmark run in a fresh interpreter; its result object.

    ``repro`` comes from ``src``, or is the one this process imported.
    With ``echo``, the run's table is printed to standard output.
    """
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=child_env(src), capture_output=True, text=True, timeout=900,
    )
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no result\n{completed.stderr[-2000:]}")
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """The verdict and the fraction of pairs the change won."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    win_fraction = wins / len(parent) if parent else 0.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    if win_fraction >= 0.9 and abs(c_med - p_med) > (p_q3 - p_q1):
        return "gain", win_fraction
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved", win_fraction
    return ("worse" if worse_by > bound else "no worse"), win_fraction


def compare(other_src: Path, workload: str | None, seconds: float,
            declared: dict) -> int:
    if not (other_src / "repro").is_dir():
        print(f"e2e: {other_src} holds no repro package", file=sys.stderr)
        return 2
    names = [workload] if workload else [w["name"] for w in declared["workloads"]]
    metrics = declared["end_to_end"]
    change_src = ROOT / "src"
    regressions = 0
    for name in names:
        values = {side: {m["name"]: [] for m in metrics} for side in ("parent", "change")}
        failures = {"parent": 0, "change": 0}
        for index in range(PAIRS):
            order = [("parent", other_src), ("change", change_src)]
            if index % 2:
                order.reverse()
            for side, src in order:
                result = invoke(name, index + 1, seconds, 0, src)
                failures[side] += result["failed"]
                for metric in metrics:
                    values[side][metric["name"]].append(
                        result["metrics"][metric["name"]]["value"])
            print(f"{name}: pair {index + 1}/{PAIRS} done", file=sys.stderr, flush=True)
        print(f"== {name}: {PAIRS} pairs, failed operations parent "
              f"{failures['parent']}, change {failures['change']}")
        for metric in metrics:
            parent = values["parent"][metric["name"]]
            change = values["change"][metric["name"]]
            outcome, wins = verdict(parent, change, metric["better"], metric["bound"])
            regressions += outcome == "worse"
            p_q1, p_med, p_q3 = quartiles(parent)
            c_q1, c_med, c_q3 = quartiles(change)
            print(f"   {metric['name']:12s} parent {p_med:.5g} [{p_q1:.5g}, {p_q3:.5g}]"
                  f"  change {c_med:.5g} [{c_q1:.5g}, {c_q3:.5g}]"
                  f"  change won {wins:.0%}: {outcome} (bound {metric['bound']:.0%})")
        regressions += failures["change"] > failures["parent"]
    return 1 if regressions else 0

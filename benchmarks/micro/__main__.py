"""CLI for the microbenchmark suite: run, emit BENCH_core.json, check.

Examples::

    # Full run, write the perf record:
    PYTHONPATH=src python -m benchmarks.micro --output BENCH_core.json

    # Record a baseline section (e.g. numbers measured on the previous
    # engine) alongside fresh numbers, with speedups computed:
    PYTHONPATH=src python -m benchmarks.micro \\
        --baseline old_numbers.json --output BENCH_core.json

    # CI guard: exit 1 if any rate drops >30 % below the committed file:
    PYTHONPATH=src python -m benchmarks.micro --check BENCH_core.json \\
        --scale 0.25 --repeats 2
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from .core import BENCHMARKS, run_suite

#: CI failure threshold: fresh rate must be >= (1 - this) * committed rate.
REGRESSION_TOLERANCE = 0.30


def _load_benchmarks(path: pathlib.Path) -> dict:
    data = json.loads(path.read_text())
    return data.get("benchmarks", data)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.micro", description="simulator hot-path microbenchmarks"
    )
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size multiplier (1.0 = full, CI uses less)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per benchmark (best run reported)")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write results JSON here (e.g. BENCH_core.json)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="JSON with reference numbers to embed as the "
                             "'baseline' section (speedups are computed)")
    parser.add_argument("--check", default=None, metavar="PATH",
                        help="committed BENCH_core.json to compare against; "
                             f"exit 1 on a >{REGRESSION_TOLERANCE:.0%} drop")
    parser.add_argument("--only", default=None, metavar="NAME",
                        help="run a single benchmark by name")
    args = parser.parse_args(argv)

    names = None
    if args.only is not None:
        if args.only not in BENCHMARKS:
            parser.error(f"unknown benchmark {args.only!r}")
        names = [args.only]
    results = run_suite(scale=args.scale, repeats=args.repeats, names=names)

    record: dict = {
        "schema": 1,
        "suite": "benchmarks/micro",
        "config": {"scale": args.scale, "repeats": args.repeats},
        "benchmarks": results,
    }

    if args.baseline is not None:
        baseline = _load_benchmarks(pathlib.Path(args.baseline))
        record["baseline"] = baseline
        record["speedup"] = {
            name: round(result["value"] / baseline[name]["value"], 3)
            for name, result in results.items()
            if name in baseline and baseline[name].get("value")
        }

    for name, result in results.items():
        line = f"{name:14s} {result['value']:>14,.0f} {result['metric']}"
        speedup = record.get("speedup", {}).get(name)
        if speedup is not None:
            line += f"   ({speedup:.2f}x vs baseline)"
        print(line)

    status = 0
    if args.check is not None:
        committed = _load_benchmarks(pathlib.Path(args.check))
        floor = 1.0 - REGRESSION_TOLERANCE
        for name, reference in committed.items():
            fresh = results.get(name)
            if fresh is None or not reference.get("value"):
                continue
            ratio = fresh["value"] / reference["value"]
            verdict = "ok" if ratio >= floor else "REGRESSION"
            print(f"check {name:14s} {ratio:6.2f}x of committed baseline: {verdict}")
            if ratio < floor:
                status = 1
        if status:
            print(
                f"FAIL: rate dropped more than {REGRESSION_TOLERANCE:.0%} below "
                f"{args.check}", file=sys.stderr,
            )

    if args.output is not None:
        path = pathlib.Path(args.output)
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())

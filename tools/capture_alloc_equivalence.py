#!/usr/bin/env python3
"""Capture allocator-equivalence evidence for hot-path rewrites.

Produces a JSON record with three sections:

* ``fig2`` — audited figure-2-style sweep points (restricted buddy
  variants x workloads): the full fingerprint timeline digests.
* ``fig6`` — audited figure-6 comparison points (all four compared
  policies x workloads): fingerprint timeline digests.
* ``fuzz`` — the 45-config allocation-to-failure fuzz grid: the
  fragmentation report fields, operation count, and file count of every
  run (pure functions of every allocation decision made).

Run before and after an allocator change and diff the two files; any
difference means the change altered an allocation decision somewhere::

    PYTHONPATH=src python tools/capture_alloc_equivalence.py --out pre.json
    # ... rewrite the allocator ...
    PYTHONPATH=src python tools/capture_alloc_equivalence.py --out post.json
    diff pre.json post.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def capture_fig2(scale: float, cap_ms: float) -> dict:
    from repro import (
        AuditConfig,
        ExperimentConfig,
        RestrictedPolicy,
        SystemConfig,
    )
    from repro.core.experiments import run_performance_experiment

    audit = AuditConfig(invariants=True, fingerprints=True, cadence_events=2_000)
    out: dict[str, list[str]] = {}
    for workload in ("TS", "TP", "SC"):
        for n_sizes, grow, clustered in (
            (5, 1, True), (3, 1, True), (5, 2, True), (5, 1, False)
        ):
            sizes = ("1K", "8K", "64K", "1M", "16M")[:n_sizes]
            policy = RestrictedPolicy(
                block_sizes=sizes, grow_factor=grow, clustered=clustered
            )
            config = ExperimentConfig(
                policy=policy, workload=workload,
                system=SystemConfig(scale=scale),
            )
            result = run_performance_experiment(
                config, audit=audit, app_cap_ms=cap_ms, seq_cap_ms=cap_ms
            )
            key = f"{workload}/{policy.label}"
            out[key] = [fp.digest for fp in (result.fingerprints or ())]
            print(f"fig2 {key}: {len(out[key])} fingerprints", file=sys.stderr)
    return out


def capture_fig6(scale: float, cap_ms: float) -> dict:
    from repro import (
        AuditConfig,
        BuddyPolicy,
        ExperimentConfig,
        ExtentPolicy,
        FixedPolicy,
        RestrictedPolicy,
        SystemConfig,
    )
    from repro.core.experiments import run_performance_experiment

    audit = AuditConfig(invariants=True, fingerprints=True, cadence_events=2_000)
    policies = [
        BuddyPolicy(),
        RestrictedPolicy(),
        ExtentPolicy(),
        FixedPolicy(block_size="4K"),
        FixedPolicy(block_size="16K"),
    ]
    out: dict[str, list[str]] = {}
    for workload in ("TS", "TP", "SC"):
        for policy in policies:
            config = ExperimentConfig(
                policy=policy, workload=workload,
                system=SystemConfig(scale=scale),
            )
            result = run_performance_experiment(
                config, audit=audit, app_cap_ms=cap_ms, seq_cap_ms=cap_ms
            )
            key = f"{workload}/{policy.label}"
            out[key] = [fp.digest for fp in (result.fingerprints or ())]
            print(f"fig6 {key}: {len(out[key])} fingerprints", file=sys.stderr)
    return out


def capture_fuzz(scale: float) -> dict:
    from repro import (
        AuditConfig,
        BuddyPolicy,
        ExperimentConfig,
        ExtentPolicy,
        FixedPolicy,
        LogStructuredPolicy,
        RestrictedPolicy,
        SystemConfig,
    )
    from repro.core.experiments import run_allocation_experiment

    policies = [
        BuddyPolicy(), RestrictedPolicy(), ExtentPolicy(),
        FixedPolicy(), LogStructuredPolicy(),
    ]
    out: dict[str, dict] = {}
    for policy in policies:
        for workload in ("TS", "TP", "SC"):
            for seed in (3, 1991, 86_028_121):
                config = ExperimentConfig(
                    policy=policy, workload=workload,
                    system=SystemConfig(scale=scale), seed=seed,
                )
                result = run_allocation_experiment(
                    config, fill_fraction=1.0,
                    audit=AuditConfig(cadence_events=100),
                )
                frag = result.fragmentation
                key = f"{policy.label}/{workload}/{seed}"
                out[key] = {
                    "internal": frag.internal_fraction,
                    "external": frag.external_fraction,
                    "allocated_units": frag.allocated_units,
                    "operations": result.operations,
                    "files": result.file_count,
                    "avg_extents": result.average_extents_per_file,
                }
                print(f"fuzz {key}: ops={result.operations}", file=sys.stderr)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--fuzz-scale", type=float, default=0.005)
    parser.add_argument("--cap-ms", type=float, default=2_000.0)
    parser.add_argument("--skip", nargs="*", default=(),
                        choices=("fig2", "fig6", "fuzz"))
    args = parser.parse_args(argv)

    record: dict = {"scale": args.scale, "fuzz_scale": args.fuzz_scale}
    if "fig2" not in args.skip:
        record["fig2"] = capture_fig2(args.scale, args.cap_ms)
    if "fig6" not in args.skip:
        record["fig6"] = capture_fig6(args.scale, args.cap_ms)
    if "fuzz" not in args.skip:
        record["fuzz"] = capture_fuzz(args.fuzz_scale)
    path = pathlib.Path(args.out)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke tests: every microbenchmark runs and reports a sane rate.

These run at a tiny scale so ``pytest benchmarks`` stays fast; the real
numbers come from ``python -m benchmarks.micro``.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.micro import BENCHMARKS, run_suite
from benchmarks.micro.__main__ import main as micro_main


def test_registry_names():
    assert set(BENCHMARKS) == {
        "engine_loop",
        "disk_service",
        "alloc_churn",
        "alloc_churn_buddy",
        "alloc_churn_extent",
        "alloc_churn_fixed",
        "alloc_churn_log",
        "alloc_populate",
        "experiment_point",
        "experiment_point_tp",
        "experiment_point_sc",
    }


def test_suite_smoke_rates_positive():
    results = run_suite(scale=0.01, repeats=1)
    for name, result in results.items():
        assert result["value"] > 0, name
        assert result["work"] > 0, name
        assert result["metric"].endswith("_per_sec"), name


def test_cli_emits_json_and_checks(tmp_path, capsys):
    output = tmp_path / "BENCH_core.json"
    assert micro_main(["--scale", "0.01", "--repeats", "1",
                       "--output", str(output)]) == 0
    record = json.loads(output.read_text())
    assert record["schema"] == 1
    assert set(record["benchmarks"]) == set(BENCHMARKS)
    # Self-check against the numbers just written always passes the
    # 30 % tolerance in expectation; force a guaranteed failure instead
    # by inflating the committed reference.
    for entry in record["benchmarks"].values():
        entry["value"] *= 100.0
    inflated = tmp_path / "inflated.json"
    inflated.write_text(json.dumps(record))
    assert micro_main(["--scale", "0.01", "--repeats", "1",
                       "--check", str(inflated)]) == 1
    capsys.readouterr()


def test_cli_baseline_speedup(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    first = micro_main(["--scale", "0.01", "--repeats", "1",
                        "--output", str(baseline)])
    assert first == 0
    output = tmp_path / "BENCH_core.json"
    assert micro_main(["--scale", "0.01", "--repeats", "1",
                       "--baseline", str(baseline),
                       "--output", str(output)]) == 0
    record = json.loads(output.read_text())
    assert set(record["speedup"]) == set(BENCHMARKS)
    assert all(ratio > 0 for ratio in record["speedup"].values())
    capsys.readouterr()


def test_cli_only_runs_the_named_benchmark(tmp_path, monkeypatch, capsys):
    for name in BENCHMARKS:
        if name != "engine_loop":
            monkeypatch.setitem(BENCHMARKS, name, _must_not_run)
    output = tmp_path / "BENCH_core.json"
    assert micro_main(["--only", "engine_loop", "--scale", "0.01",
                       "--repeats", "1", "--output", str(output)]) == 0
    assert set(json.loads(output.read_text())["benchmarks"]) == {"engine_loop"}
    capsys.readouterr()


def test_cli_only_rejects_unknown_name_before_timing(monkeypatch, capsys):
    for name in BENCHMARKS:
        monkeypatch.setitem(BENCHMARKS, name, _must_not_run)
    with pytest.raises(SystemExit) as excinfo:
        micro_main(["--only", "nope"])
    assert excinfo.value.code == 2
    assert "unknown benchmark 'nope'" in capsys.readouterr().err


def _must_not_run(scale, repeats):
    raise AssertionError("benchmark ran although --only named another")

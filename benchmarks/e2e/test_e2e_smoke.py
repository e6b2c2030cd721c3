"""Smoke tests: every workload through the benchmark's own code, tiny.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  Sizes are
passed as arguments: Figure 6 at scale 0.02 with 2 s caps, the
allocation tests on SC only, and one block of eight service rounds.
The peak-RSS test runs ``alloc_tests`` and ``serve_mix``, and the
leftover-process test ``serve_mix``, through the command line with a
1 s loop, one pass and one block.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import metrics as metric_defs
from benchmarks.e2e.__main__ import run_in_children, run_one
from benchmarks.e2e.common import Run, child_env
from benchmarks.e2e.compare import invoke
from benchmarks.e2e.serve_mix import ServeWorkload
from benchmarks.e2e.simulation import AllocWorkload, Fig6Workload

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
SEED = 7

TINY = {
    "fig6_ts": lambda: Fig6Workload("fig6_ts", ("TS",), scale=0.02, cap_ms=2_000.0),
    "alloc_tests": lambda: AllocWorkload(points=(("SC", 1.0),)),
    "serve_mix": lambda: ServeWorkload(blocks=1, traced_blocks=1),
}


def _check_trace():
    spec = importlib.util.spec_from_file_location(
        "check_trace", ROOT / "tools" / "check_trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _measure(name: str, tmp_path: Path, traced: bool, golden=None):
    run = Run(name, SEED, golden=dict(golden or {}))
    trace_path = tmp_path / "trace.json"
    values, extra = run_one(TINY[name](), run, 1.0, traced, tmp_path / "work",
                            trace_path=trace_path)
    return run, values, extra, trace_path


@pytest.fixture(scope="module", params=sorted(TINY))
def measured(request, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp(request.param)
    plain = _measure(request.param, tmp_path / "plain", traced=False)
    traced = _measure(request.param, tmp_path / "traced", traced=True)
    return request.param, plain, traced


def test_every_metric_printed_with_unit(measured):
    name, (run, values, extra, _), (trun, tvalues, textra, _) = measured
    assert run.failed == 0, run.problems
    assert trun.failed == 0, trun.problems
    printed = metric_defs.render(name, SEED, run, values, UNITS, extra) + "\n" + \
        metric_defs.render(name, SEED, trun, tvalues, UNITS, textra)
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        line = next(l for l in printed.splitlines() if l.split()[0] == metric["name"])
        assert line.split()[2] == metric["unit"], line
    for metric in DECLARED["end_to_end"]:
        assert values[metric["name"]][0] > 0, metric["name"]


def test_traced_digests_equal_untraced(measured):
    _, (run, *_), (trun, *_) = measured
    # The traced run checks its untraced and traced passes against each
    # other; across runs, every point both saw must agree as well.
    shared = set(run.digests) & set(trun.digests)
    assert shared
    assert all(run.digests[k] == trun.digests[k] for k in shared)


def test_layers_cover_traced_wall(measured):
    _, _, (_, tvalues, _, _) = measured
    assert 1.0 - tvalues["trace.unattributed"][0] >= 0.9


def test_trace_file_validates(measured):
    _, _, (_, _, _, trace_path) = measured
    counts = _check_trace().validate_trace(json.loads(trace_path.read_text()))
    assert counts["spans"] >= 2


def test_corrupted_golden_counts_as_failure(tmp_path):
    run, *_ = _measure("fig6_ts", tmp_path / "clean", traced=False)
    assert run.failed == 0, run.problems
    golden = dict(run.digests)
    victim = sorted(golden)[0]
    golden[victim] = "0" * 64
    corrupted, *_ = _measure("fig6_ts", tmp_path / "corrupt", traced=False, golden=golden)
    assert corrupted.failed > 0
    assert any(victim in problem and "golden" in problem
               for problem in corrupted.problems)


def test_each_workload_reports_its_own_peak_rss():
    # alloc_tests peaks near 130 MB and serve_mix near 40 MB: measured in
    # one process after alloc_tests, serve_mix would read the larger peak.
    _, failed, together = run_in_children(["alloc_tests", "serve_mix"], [0], SEED, 1.0)
    assert failed == 0
    alone = invoke("serve_mix", SEED, 1.0, 0)
    assert alone["failed"] == 0
    rss = alone["metrics"]["peak_rss_mb"]["value"]
    assert abs(together["serve_mix.peak_rss_mb"]["value"] - rss) <= 0.1 * rss


def _group_members(pgid: int) -> list[str]:
    members = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
        except (OSError, ValueError):
            continue
        if int(stat.rsplit(")", 1)[-1].split()[2]) == pgid:
            members.append(stat)
    return members


def test_command_leaves_no_process():
    # A stopped `repro serve` leaves its multiprocessing resource tracker
    # behind; without reaping, it would outlive the command.
    command = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", "serve_mix",
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    _, stderr = command.communicate(timeout=300)
    assert command.returncode == 0, stderr[-2000:]
    # The command led its own process group; a survivor would still be in it.
    assert _group_members(command.pid) == []


def test_layer_separation_in_tiny_runs(measured):
    name, _, (_, tvalues, _, _) = measured
    if name == "alloc_tests":
        assert tvalues["disk.share"][0] == 0.0
        assert tvalues["sim.share"][0] == 0.0
        assert tvalues["alloc.share"][0] > 0.2
    if name == "serve_mix":
        assert tvalues["serve.run_share"][0] > 0.0
        assert 0.0 < tvalues["serve.cache_hit_ratio"][0] < 1.0

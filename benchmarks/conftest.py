"""Shared configuration for the figure/table regeneration benchmarks.

Each benchmark regenerates one table or figure from the paper and prints
it (run pytest with ``-s`` to see the output live); every rendered report
is also written to ``results/`` so a plain ``pytest benchmarks/
--benchmark-only`` leaves the full set of regenerated tables on disk.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — disk scale for the throughput benchmarks
  (default 0.25: a 700 M slice of the paper's 2.8 G array; use 1.0 for the
  full-size system, at several times the wall-clock cost).
* ``REPRO_BENCH_SEED`` — RNG seed (default 1991).
* ``REPRO_BENCH_APP_CAP_MS`` / ``REPRO_BENCH_SEQ_CAP_MS`` — simulated-time
  caps per measured phase (default 90 000 ms = nine 10-second intervals).
* ``REPRO_BENCH_TOLERANCE`` — stabilization tolerance (default 0.003; the
  paper's 0.1 % rule rarely fires within laptop-sized horizons, so the
  caps normally govern).
* ``REPRO_BENCH_JOBS`` — worker processes per sweep (default 1: serial,
  so benchmark timings stay comparable; parallel output is identical).
* ``REPRO_BENCH_CACHE`` — set to ``0`` to disable the result cache.
* ``REPRO_BENCH_CACHE_DIR`` — cache location (default ``results/.cache``).
  With the cache warm, regenerating every table and figure replays
  cached sweep points instead of recomputing identical simulations;
  delete the directory (or change any knob above) to recompute.

Fragmentation (allocation) benchmarks for TP and SC always run at full
scale — they are cheap and scale-sensitive; TS fragmentation runs at the
throughput scale because its cost is proportional to its file count.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.core.configs import SystemConfig
from repro.core.runner import ExperimentRunner

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "1991"))
APP_CAP_MS = float(os.environ.get("REPRO_BENCH_APP_CAP_MS", "90000"))
SEQ_CAP_MS = float(os.environ.get("REPRO_BENCH_SEQ_CAP_MS", "90000"))
TOLERANCE = float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.003"))
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
BENCH_CACHE = os.environ.get("REPRO_BENCH_CACHE", "1") != "0"

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
BENCH_CACHE_DIR = pathlib.Path(
    os.environ.get("REPRO_BENCH_CACHE_DIR", str(RESULTS_DIR / ".cache"))
)


@pytest.fixture(scope="session")
def bench_system() -> SystemConfig:
    """The disk system for throughput benchmarks (scaled)."""
    return SystemConfig(scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def full_system() -> SystemConfig:
    """The paper's full 2.8 G system (for cheap allocation tests)."""
    return SystemConfig(scale=1.0)


@pytest.fixture(scope="session")
def bench_seed() -> int:
    return BENCH_SEED


def emit(name: str, text: str) -> None:
    """Print a rendered report and persist it under ``results/``."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def bench_runner() -> ExperimentRunner:
    """One shared experiment runner: cached sweep points replay across
    the whole benchmark session instead of being recomputed per figure."""
    runner = ExperimentRunner(
        jobs=BENCH_JOBS,
        cache_dir=BENCH_CACHE_DIR if BENCH_CACHE else None,
    )
    yield runner
    print(f"\n[bench runner]\n{runner.summary()}")


@pytest.fixture(scope="session")
def perf_caps() -> dict:
    """Keyword arguments for run_performance_experiment."""
    return dict(
        app_cap_ms=APP_CAP_MS, seq_cap_ms=SEQ_CAP_MS, tolerance=TOLERANCE
    )

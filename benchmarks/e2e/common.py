"""What one benchmark run measured and checked, and helpers all workloads share."""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .hostspeed import ScaledTimer
from .layers import LayerTotals

ROOT = Path(__file__).resolve().parents[2]
GOLDEN_PATH = Path(__file__).with_name("golden.json")
DEFAULT_SEED = 1991

#: Fresh starts per run; ``setup_s`` is their median.
SETUP_STARTS = 5

_perf = time.perf_counter


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    middle = n // 2
    return ordered[middle] if n % 2 else (ordered[middle - 1] + ordered[middle]) / 2


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def child_env(src: Path | None = None) -> dict[str, str]:
    """Environment for child interpreters: ``repro`` from ``src``, else the same as ours."""
    if src is None:
        import repro

        src = Path(repro.__file__).parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src.resolve()), str(ROOT)])
    return env


# ---------------------------------------------------------------------------
# What a run measured and checked
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """Operations attempted and failed, digests seen, and timing samples.

    A failed operation is an exception, a failed point, a response that
    is not 200 or not done, a digest that differs from the golden, or a
    point whose digest differs between passes or responses.
    """

    workload: str
    seed: int
    golden: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: Points covered by the combined digest (all that every run reaches).
    combined_ids: list[str] = field(default_factory=list)
    #: Times the untraced run's set-up starts and passes.
    timer: ScaledTimer = field(default_factory=ScaledTimer)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def sample_timed(self, name: str, raw_scaled: tuple[float, float]) -> None:
        """``name`` gets the scaled seconds, ``<name without _s>_raw_s`` the raw."""
        raw, scaled = raw_scaled
        self.sample(name, scaled)
        self.sample(name.removesuffix("_s") + "_raw_s", raw)

    def attempt(self, problem: str | None) -> None:
        """Count one operation; ``problem`` describes why it failed."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)

    def digest_problem(self, point_id: str, digest: str) -> str | None:
        """Record a point's digest; say what is wrong with it, if anything."""
        first = self.digests.setdefault(point_id, digest)
        if first != digest:
            return f"{point_id}: digest {digest[:12]} differs from {first[:12]}"
        golden = self.golden.get(point_id)
        if golden is not None and golden != digest:
            return f"{point_id}: digest {digest[:12]} != golden {golden[:12]}"
        return None

    def combined_digest(self) -> str:
        pairs = sorted((i, self.digests.get(i, "")) for i in self.combined_ids)
        return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def load_golden(workload: str, seed: int) -> dict[str, str]:
    """Recorded digests for ``workload`` (only at the recorded seed)."""
    if not GOLDEN_PATH.exists():
        return {}
    document = json.loads(GOLDEN_PATH.read_text())
    if document["seed"] != seed:
        return {}
    return dict(document["points"].get(workload, {}))


def time_boxed(seconds: float, one_pass: Callable[[], None],
               max_passes: int | None) -> int:
    """Run passes while the next one is predicted to end within ``seconds``."""
    start = _perf()
    passes = 0
    while max_passes is None or passes < max_passes:
        one_pass()
        passes += 1
        elapsed = _perf() - start
        if elapsed + elapsed / passes > seconds:
            break
    return passes


@dataclass
class LayerReport:
    """What a traced pass attributed, as the per-layer metrics need it."""

    totals: LayerTotals
    blocking_s: float  # the traced time every share divides
    traced_s: float  # the traced pass, against the untraced one
    untraced_s: float
    ops: int = 0
    dispatch_share: float = 0.0
    extra_shares: dict[str, float] = field(default_factory=dict)
    hit_ratio: float = 0.0
    dedup_fanin: float = 0.0
    store_ms: list[float] = field(default_factory=list)
    detail_ms: dict[str, list[float]] = field(default_factory=dict)


def store_times_ms(totals: LayerTotals) -> list[float]:
    return [
        (span.end - span.start) * 1e3
        for span in totals.spans
        if span.name == "core.cache_store"
    ]

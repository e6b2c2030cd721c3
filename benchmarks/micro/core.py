"""Microbenchmark implementations and the timing harness.

Each benchmark builds a deterministic, seeded workload, times the hot loop
with :func:`time.perf_counter` over ``repeats`` runs, and reports the best
(fastest) run as a throughput rate.  The workload construction happens
outside the timed region, so the numbers isolate the engine / disk /
allocator inner loops themselves.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.alloc.base import Allocator
from repro.core.comparison import selected_policies
from repro.core.configs import (
    BuddyPolicy,
    ExperimentConfig,
    ExtentPolicy,
    FixedPolicy,
    LogStructuredPolicy,
    PolicyConfig,
    RestrictedPolicy,
    SystemConfig,
)
from repro.disk.drive import DiskDrive
from repro.disk.geometry import WREN_IV
from repro.disk.request import DiskRequest, IoKind
from repro.errors import DiskFullError
from repro.fs.filesystem import FileSystem
from repro.sim.engine import Simulator, Waitable
from repro.sim.rng import RandomStream
from repro.workload import sample_initial_size
from repro.workload.profiles import time_sharing

#: 1K disk units over a 64 M address space for the allocator churn.
_ALLOC_CAPACITY_UNITS = 65_536
_ALLOC_UNIT_BYTES = 1024


def _best_of(repeats: int, run: Callable[[], tuple[int, float]]) -> tuple[int, float]:
    """Run ``run`` ``repeats`` times; return (work_items, best_seconds)."""
    best_n = 0
    best_s = float("inf")
    for _ in range(max(1, repeats)):
        n, seconds = run()
        if seconds < best_s:
            best_n, best_s = n, seconds
    return best_n, best_s


# ---------------------------------------------------------------------------
# engine_loop — end-to-end event engine
# ---------------------------------------------------------------------------


def bench_engine_loop(scale: float = 1.0, repeats: int = 3) -> dict[str, Any]:
    """End-to-end engine microbenchmark.

    ``n_chains`` ping-pong processes each round-trip through one heap-
    scheduled timer plus one zero-delay waitable resumption, with delays
    quantized to 0.25 ms so same-timestamp ties are common.  A second
    population of plain sleepers exercises the pure timer path.  This is
    the "end-to-end engine microbenchmark" guarded by CI.
    """
    until_ms = max(50.0, 4000.0 * scale)
    n_chains = 48
    n_sleepers = 16

    def run() -> tuple[int, float]:
        sim = Simulator()
        rng = RandomStream(7, "micro-engine")
        # Quantized delays: heavy (time, seq) tie traffic.
        delays = tuple(
            0.25 * rng.uniform_int(1, 12) for _ in range(1024)
        )

        def chain(offset: int):
            i = offset
            while True:
                waitable = Waitable()
                sim.schedule(delays[i & 1023], waitable.succeed)
                yield waitable  # resumes via the zero-delay path
                i += 3

        def sleeper(offset: int):
            i = offset
            while True:
                yield delays[(i * 7) & 1023]
                i += 1

        for k in range(n_chains):
            sim.process(chain(k))
        for k in range(n_sleepers):
            sim.process(sleeper(k))
        start = time.perf_counter()
        sim.run(until=until_ms)
        elapsed = time.perf_counter() - start
        return sim.events_executed, elapsed

    events, seconds = _best_of(repeats, run)
    return {
        "metric": "events_per_sec",
        "value": events / seconds,
        "work": events,
        "best_s": seconds,
    }


# ---------------------------------------------------------------------------
# disk_service — DiskDrive.service hot path
# ---------------------------------------------------------------------------


def bench_disk_service(scale: float = 1.0, repeats: int = 3) -> dict[str, Any]:
    """Time :meth:`DiskDrive.service` over a sequential/random request mix.

    Requests are prebuilt outside the timed loop: three-quarters continue
    the previous transfer (the paper's sequential-read regime, which
    exercises the skew/rotation math), one quarter seek to a random
    cylinder.
    """
    n_requests = max(500, int(120_000 * scale))
    rng = RandomStream(11, "micro-disk")
    capacity = WREN_IV.capacity_bytes
    requests = []
    position = 0
    for i in range(n_requests):
        if i % 4 == 3:
            position = rng.uniform_int(0, (capacity - 1) // 8192 - 1) * 8192
        n_bytes = 8192 if i % 2 == 0 else 24 * 1024
        if position + n_bytes > capacity:
            position = 0
        requests.append(DiskRequest(IoKind.READ, position, n_bytes))
        position += n_bytes

    def run() -> tuple[int, float]:
        drive = DiskDrive(WREN_IV)
        clock = 0.0
        start = time.perf_counter()
        for request in requests:
            breakdown = drive.service(request, clock)
            clock += breakdown.total_ms
        elapsed = time.perf_counter() - start
        return n_requests, elapsed

    count, seconds = _best_of(repeats, run)
    return {
        "metric": "requests_per_sec",
        "value": count / seconds,
        "work": count,
        "best_s": seconds,
    }


# ---------------------------------------------------------------------------
# alloc_churn — allocator inner loops
# ---------------------------------------------------------------------------


def _churn(allocator: Allocator, rng: RandomStream, n_ops: int) -> int:
    files: list[Any] = []
    performed = 0
    for i in range(n_ops):
        op = i % 8
        try:
            if op in (0, 1) or not files:
                handle = allocator.create(size_hint_units=rng.uniform_int(1, 64))
                allocator.extend(handle, rng.uniform_int(1, 64))
                files.append(handle)
            elif op in (2, 3, 4):
                allocator.extend(rng.choice(files), rng.uniform_int(1, 32))
            elif op == 5:
                handle = rng.choice(files)
                if handle.allocated_units > 1:
                    allocator.truncate(handle, handle.allocated_units // 2)
            else:
                index = rng.uniform_int(0, len(files) - 1)
                allocator.delete(files.pop(index))
        except DiskFullError:
            while len(files) > 4:
                allocator.delete(files.pop())
        performed += 1
    return performed


def _bench_policy_churn(
    policy: PolicyConfig, scale: float, repeats: int
) -> dict[str, Any]:
    """Create/extend/truncate/delete churn on one allocation policy."""
    n_ops = max(200, int(30_000 * scale))

    def run() -> tuple[int, float]:
        rng = RandomStream(13, "micro-alloc")
        allocator = policy.build(
            _ALLOC_CAPACITY_UNITS, _ALLOC_UNIT_BYTES, rng.fork("policy")
        )
        ops_rng = rng.fork("ops")
        start = time.perf_counter()
        performed = _churn(allocator, ops_rng, n_ops)
        elapsed = time.perf_counter() - start
        return performed, elapsed

    count, seconds = _best_of(repeats, run)
    return {
        "metric": "ops_per_sec",
        "value": count / seconds,
        "work": count,
        "best_s": seconds,
    }


def bench_alloc_churn(scale: float = 1.0, repeats: int = 3) -> dict[str, Any]:
    """Churn on the restricted buddy policy (the paper's central design)."""
    return _bench_policy_churn(RestrictedPolicy(), scale, repeats)


# ---------------------------------------------------------------------------
# alloc_populate — the allocator's chunked growth at populate time
# ---------------------------------------------------------------------------

#: System scale and fill of the populated file system: every policy,
#: the buddy's doubling included, lays the whole population out.
_POPULATE_SYSTEM_SCALE = 0.05
_POPULATE_FILL = 0.4


def bench_alloc_populate(scale: float = 1.0, repeats: int = 3) -> dict[str, Any]:
    """``FileSystem.allocate_to`` with the TS populate steps, four policies.

    Grows fresh files to TS initial sizes (8K small files in 2K
    requests, 96K large files in 8K requests: the steps the workload
    driver passes) on each of Figure 6's four TS policies, and reports
    files grown per second.  File creation and the size draws stay
    outside the timed region.  ``scale`` trims the share of the
    population grown.
    """
    system = SystemConfig(scale=_POPULATE_SYSTEM_SCALE)
    profile = time_sharing(system.capacity_bytes, fill_fraction=_POPULATE_FILL)
    rng = RandomStream(17, "micro-populate")
    plan = [
        (file_type, sample_initial_size(rng, file_type))
        for file_type in profile.types
        for _ in range(file_type.n_files)
    ]
    rng.shuffle(plan)
    plan = plan[: max(40, int(len(plan) * scale))]

    def run() -> tuple[int, float]:
        elapsed = 0.0
        grown = 0
        for policy in selected_policies("TS"):
            sim = Simulator()
            array = system.build_array(sim)
            allocator = policy.build(
                array.capacity_units,
                system.disk_unit_bytes,
                RandomStream(17, "micro-populate-policy"),
            )
            fs = FileSystem(sim, array, allocator)
            jobs = [
                (
                    fs.create(
                        size_hint_bytes=file_type.allocation_size_bytes,
                        tag=file_type.name,
                    ),
                    size,
                    file_type.allocation_size_bytes,
                )
                for file_type, size in plan
            ]
            allocate_to = fs.allocate_to
            start = time.perf_counter()
            for fs_file, size, step in jobs:
                allocate_to(fs_file, size, step)
            elapsed += time.perf_counter() - start
            grown += len(jobs)
        return grown, elapsed

    count, seconds = _best_of(repeats, run)
    return {
        "metric": "files_per_sec",
        "value": count / seconds,
        "work": count,
        "best_s": seconds,
    }


# ---------------------------------------------------------------------------
# experiment_point — end-to-end application-phase experiment
# ---------------------------------------------------------------------------

#: System scale for the macro benchmark points.  Small enough that one
#: repeat stays in benchmark territory, large enough that the TS file
#: population (the delete-churn scan victim) numbers in the thousands.
_POINT_SYSTEM_SCALE = 0.05


def _bench_experiment_point(
    workload: str, cap_ms: float, scale: float, repeats: int
) -> dict[str, Any]:
    """One full application-phase performance point, measured end to end.

    Unlike the microbenchmarks above, this times the whole experiment
    path — populate, prefill, warm-up, and the timed application phase
    through the workload driver, file system, allocator, and disk array —
    and reports workload operations completed per wall-clock second.
    The simulated-time cap is deliberately NOT scaled down for CI: the
    fixed populate cost is amortized over the capped run, so shrinking
    the cap would change the ops/sec a run reports and make the CI-scale
    ``--check`` comparison against the committed full-scale record
    meaningless.  ``scale`` instead trims the repeat count (the whole
    point is only a few seconds per repeat at this system scale).
    """
    from repro.core.experiments import run_performance_experiment

    app_cap = cap_ms
    if scale < 1.0:
        repeats = max(1, round(repeats * scale))

    def run() -> tuple[int, float]:
        config = ExperimentConfig(
            policy=RestrictedPolicy(),
            workload=workload,
            system=SystemConfig(scale=_POINT_SYSTEM_SCALE),
        )
        start = time.perf_counter()
        result = run_performance_experiment(
            config,
            app_cap_ms=app_cap,
            warmup_ms=1_000.0,
            run_sequential=False,
        )
        elapsed = time.perf_counter() - start
        return sum(result.operation_counts.values()), elapsed

    ops, seconds = _best_of(repeats, run)
    return {
        "metric": "ops_per_sec",
        "value": ops / seconds,
        "work": ops,
        "best_s": seconds,
    }


def bench_experiment_point(scale: float = 1.0, repeats: int = 3) -> dict[str, Any]:
    """Tiny TS application-phase point (the delete-churn hot path)."""
    return _bench_experiment_point("TS", 60_000.0, scale, repeats)


def bench_experiment_point_tp(scale: float = 1.0, repeats: int = 3) -> dict[str, Any]:
    """TP variant: small-file random I/O against a fixed population."""
    return _bench_experiment_point("TP", 60_000.0, scale, repeats)


def bench_experiment_point_sc(scale: float = 1.0, repeats: int = 3) -> dict[str, Any]:
    """SC variant: large sequential bursts (array transfer path heavy)."""
    return _bench_experiment_point("SC", 60_000.0, scale, repeats)


#: The per-policy churn variants (``alloc_churn`` itself is restricted).
_CHURN_POLICIES: dict[str, PolicyConfig] = {
    "alloc_churn_buddy": BuddyPolicy(),
    "alloc_churn_extent": ExtentPolicy(),
    "alloc_churn_fixed": FixedPolicy(),
    "alloc_churn_log": LogStructuredPolicy(),
}


def _make_policy_bench(policy: PolicyConfig) -> Callable[[float, int], dict[str, Any]]:
    def bench(scale: float = 1.0, repeats: int = 3) -> dict[str, Any]:
        return _bench_policy_churn(policy, scale, repeats)

    return bench


#: Registry: name -> benchmark callable(scale, repeats) -> result dict.
BENCHMARKS: dict[str, Callable[[float, int], dict[str, Any]]] = {
    "engine_loop": bench_engine_loop,
    "disk_service": bench_disk_service,
    "alloc_churn": bench_alloc_churn,
    "alloc_populate": bench_alloc_populate,
    **{name: _make_policy_bench(policy)
       for name, policy in _CHURN_POLICIES.items()},
    "experiment_point": bench_experiment_point,
    "experiment_point_tp": bench_experiment_point_tp,
    "experiment_point_sc": bench_experiment_point_sc,
}


def run_suite(
    scale: float = 1.0, repeats: int = 3, names: list[str] | None = None
) -> dict[str, dict[str, Any]]:
    """Run the named microbenchmarks (default: all); return name -> result."""
    return {
        name: BENCHMARKS[name](scale, repeats)
        for name in sorted(BENCHMARKS if names is None else names)
    }

"""Extension ablation — log-structured allocation (§6 future work).

"In the small file environment we might want to incorporate policies from
a log structured file system to allocate blocks [ROSE90]."  This
benchmark builds the environment that suggestion targets — a
write-dominated small-file churn (files created, written once, soon
deleted) — and compares the read-optimized policies against the
:class:`~repro.core.configs.LogStructuredPolicy` extension.

Expected shape: the threaded log turns scattered small writes into
sequential ones, beating the read-optimized policies on this write-heavy
mix, while remaining unremarkable on the read-optimized policies' home
turf (the paper's own TS mix, two-thirds reads).
"""

from repro.core.configs import (
    ExtentPolicy,
    FixedPolicy,
    LogStructuredPolicy,
    RestrictedPolicy,
    SystemConfig,
    extent_ranges_for,
)
from repro.fs.filesystem import FileSystem
from repro.report.tables import Table
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStream
from repro.units import KIB
from repro.workload.driver import WorkloadDriver
from repro.workload.filetype import AccessPattern, FileType
from repro.workload.profiles import Profile

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED, emit


def write_heavy_profile(capacity_bytes: int) -> Profile:
    """Small files created, written, and deleted — almost no reads."""
    n_files = max(1, int(capacity_bytes * 0.6 / (8 * KIB)))
    churner = FileType(
        name="lfs-churn",
        n_files=n_files,
        n_users=24,
        process_time_ms=10.0,
        hit_frequency_ms=20.0,
        rw_size_bytes=8 * KIB,
        rw_deviation_bytes=2 * KIB,
        allocation_size_bytes=2 * KIB,
        truncate_size_bytes=4 * KIB,
        initial_size_bytes=8 * KIB,
        initial_deviation_bytes=2 * KIB,
        read_ratio=15.0,
        write_ratio=45.0,
        extend_ratio=0.0,
        truncate_ratio=0.0,
        delete_ratio=40.0,
        access=AccessPattern.RANDOM,
    )
    return Profile(name="LFS-CHURN", types=(churner,))


def measure_policy(policy, system, seed) -> float:
    """Application-phase utilization under the write-heavy churn."""
    sim = Simulator()
    array = system.build_array(sim)
    allocator = policy.build(
        array.capacity_units, system.disk_unit_bytes, RandomStream(seed, "a")
    )
    fs = FileSystem(sim, array, allocator)
    profile = write_heavy_profile(system.capacity_bytes)
    driver = WorkloadDriver(sim, fs, profile, seed=seed, lower_bound=0.01)
    driver.populate()
    driver.start_users()
    sim.run(until=5_000)
    from repro.sim.meters import ThroughputMeter

    meter = ThroughputMeter(array.max_bandwidth_bytes_per_ms, start_time=sim.now)
    sim.meter = meter
    started = sim.now
    sim.run(until=started + 60_000)
    return meter.stable_utilization(sim.now)


POLICIES = (
    LogStructuredPolicy(),
    RestrictedPolicy(block_sizes=("1K", "8K", "64K")),
    ExtentPolicy(range_means=extent_ranges_for("TS", 3)),
    FixedPolicy("4K"),
)


def build_lfs_ablation():
    system = SystemConfig(scale=min(BENCH_SCALE, 0.1))
    results = {
        policy.label: measure_policy(policy, system, BENCH_SEED)
        for policy in POLICIES
    }
    table = Table(
        ["Policy", "Write-churn throughput (% max)"],
        title="Ablation (paper §6 future work): log-structured allocation "
        "on a write-dominated small-file churn",
    )
    for label, value in sorted(results.items(), key=lambda kv: -kv[1]):
        table.add_row([label, f"{100 * value:.1f}%"])
    return table.render(), results


def test_ablation_log_structured(benchmark):
    text, results = benchmark.pedantic(build_lfs_ablation, rounds=1, iterations=1)
    emit("ablation_lfs", text)

    lfs = results["log-structured"]
    # The write-optimized log beats every read-optimized policy on the
    # write-dominated churn (ROSE90's claim, and the paper's motivation
    # for flagging it as future work).
    for label, value in results.items():
        if label != "log-structured":
            assert lfs > value, (label, value, lfs)

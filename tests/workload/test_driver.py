"""Unit tests for the workload driver and the allocation test loop."""

import pytest

from repro.alloc.extent import ExtentAllocator, ExtentSizeConfig, FitPolicy
from repro.disk.array import StripedArray
from repro.disk.geometry import TINY_DISK
from repro.errors import SimulationError
from repro.fs.filesystem import FileSystem
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStream
from repro.units import KIB
from repro.workload.driver import WorkloadDriver, run_allocation_until_full
from tests.oracles.profiles import mini


def make_fs(n_disks=4):
    sim = Simulator()
    array = StripedArray(sim, TINY_DISK, n_disks, 24 * KIB, KIB)
    allocator = ExtentAllocator(
        array.capacity_units,
        ExtentSizeConfig(range_means_units=(8,)),
        FitPolicy.FIRST_FIT,
        RandomStream(3),
    )
    return sim, FileSystem(sim, array, allocator)


class TestDriver:
    def test_populate_creates_expected_files(self):
        sim, fs = make_fs()
        driver = WorkloadDriver(sim, fs, mini(n_files=6), seed=1)
        driver.populate()
        assert sum(len(files) for files in driver.files.values()) == 6
        assert len(fs.files) == 6
        assert all(f.length_bytes > 0 for f in fs.files.values())

    def test_users_stagger_and_run(self):
        sim, fs = make_fs()
        driver = WorkloadDriver(sim, fs, mini(n_files=6), seed=1)
        driver.populate()
        driver.start_users()
        sim.run(until=2_000.0)
        total_ops = sum(t.count for t in driver.op_latency.values())
        assert total_ops > 20
        assert fs.bytes_read + fs.bytes_written > 0

    def test_population_survives_churn(self):
        sim, fs = make_fs()
        driver = WorkloadDriver(sim, fs, mini(n_files=6), seed=2)
        driver.populate()
        driver.start_users()
        sim.run(until=5_000.0)
        # Deletes recreate, so the population count is stable.
        assert sum(len(files) for files in driver.files.values()) == 6
        fs.allocator.check_no_overlap()

    def test_sequential_mode_only_reads_and_writes(self):
        sim, fs = make_fs()
        driver = WorkloadDriver(sim, fs, mini(n_files=4), seed=3)
        driver.populate()
        driver.mode = "sequential"
        driver.start_users()
        sim.run(until=3_000.0)
        assert set(driver.op_latency) <= {"read", "write"}

    def test_governor_converts_extends(self):
        sim, fs = make_fs()
        driver = WorkloadDriver(
            sim, fs, mini(n_files=6), seed=4, lower_bound=0.0001, upper_bound=0.0002
        )
        driver.populate()  # already above the tiny upper bound
        driver.start_users()
        sim.run(until=5_000.0)
        assert driver.governor_conversions > 0

    def test_bad_bounds_raise(self):
        sim, fs = make_fs()
        with pytest.raises(SimulationError):
            WorkloadDriver(sim, fs, mini(), lower_bound=0.9, upper_bound=0.5)

    def test_deterministic_given_seed(self):
        counts = []
        for _ in range(2):
            sim, fs = make_fs()
            driver = WorkloadDriver(sim, fs, mini(n_files=5), seed=42)
            driver.populate()
            driver.start_users()
            sim.run(until=3_000.0)
            counts.append(
                {op: t.count for op, t in driver.op_latency.items()}
            )
        assert counts[0] == counts[1]


class TestDeleteSemantics:
    """Population delete must remove the chosen object, not the first
    content-equal entry (the former dataclass ``__eq__`` + ``list.remove``
    combination's failure mode once two files look alike)."""

    def test_fsfile_compares_by_identity(self):
        sim, fs = make_fs()
        first = fs.create(size_hint_bytes=8 * KIB, tag="twin")
        second = fs.create(size_hint_bytes=8 * KIB, tag="twin")
        fs.allocate_to(first, 8 * KIB)
        fs.allocate_to(second, 8 * KIB)
        first.length_bytes = second.length_bytes = 8 * KIB
        # Observably identical, still different files.
        assert first.tag == second.tag
        assert first.length_bytes == second.length_bytes
        assert first != second
        assert hash(first) != hash(second) or first is second
        assert first == first

    def test_delete_removes_exact_object(self):
        sim, fs = make_fs()
        driver = WorkloadDriver(sim, fs, mini(n_files=6), seed=5)
        driver.populate()
        file_type = driver.profile.types[0]
        population = driver.files[file_type.name]
        victim = population[3]
        survivor_twin = population[1]
        # Make an *earlier* entry observably identical to the victim:
        # a first-equal scan would remove the twin instead.
        survivor_twin.length_bytes = victim.length_bytes
        survivor_twin.cursor_bytes = victim.cursor_bytes

        def churn():
            yield from driver._do_delete(
                file_type, victim, population, 3, 4 * KIB
            )

        sim.process(churn())
        sim.run()
        assert victim.fs_id not in fs.files
        assert survivor_twin.fs_id in fs.files
        assert survivor_twin in population
        assert victim not in population
        assert len(population) == 6

    def test_churn_timeline_matches_pre_rework_capture(self):
        """The full churn timeline is pinned, sample for sample.

        A TS run with 181 deletes, same seed, same audit cadence.  The
        digests were first captured *before* the identity-semantics /
        positional-pop rework, and re-recorded once when joins stopped
        costing events of their own: that moves event indices and the
        queued callbacks by construction, while
        ``tests/sim/test_join_differential.py`` shows every process
        resumption unchanged.  A delete that ever picks a different
        victim, or any reordering of the event stream, changes every
        subsequent fingerprint.
        """
        from repro import AuditConfig, ExperimentConfig, SystemConfig
        from repro.core.configs import RestrictedPolicy
        from repro.core.experiments import run_performance_experiment

        result = run_performance_experiment(
            ExperimentConfig(
                policy=RestrictedPolicy(),
                workload="TS",
                system=SystemConfig(scale=0.01),
                seed=11,
            ),
            audit=AuditConfig(fingerprints=True, cadence_events=1_000),
            app_cap_ms=600.0,
            seq_cap_ms=600.0,
        )
        fingerprints = result.fingerprints
        assert result.operation_counts["delete"] == 181
        assert len(fingerprints) == 9
        assert fingerprints[0].digest == (
            "1d0adc1c633f0c25504343b2d9db392abced8ccf5726c5ad3dcd812d01555352"
        )
        assert fingerprints[-1].digest == (
            "7ae94bcc12dc9a80d8780b5970d169f1d672877d03a6432175a07ab5d73b2148"
        )


class TestAllocationTest:
    def test_runs_to_disk_full(self):
        # Start near-full (like the paper's tests) so extends finish the job;
        # a sparse population with delete churn would hover forever.
        sim, fs = make_fs(n_disks=2)
        result = run_allocation_until_full(
            fs, mini(n_files=150), seed=5, max_operations=200_000
        )
        frag = result.fragmentation
        assert 0.0 <= frag.internal_fraction < 1.0
        assert 0.0 <= frag.external_fraction < 1.0
        assert result.file_count > 0
        assert result.average_extents_per_file > 0

    def test_operation_cap_reports_unfilled(self):
        sim, fs = make_fs()
        # One op will never fill a whole disk: the cap ends the test with
        # a steady-state (unfilled) snapshot.
        result = run_allocation_until_full(
            fs, mini(n_files=1), seed=6, max_operations=1
        )
        assert not result.filled
        assert result.operations == 1

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            sim, fs = make_fs(n_disks=2)
            result = run_allocation_until_full(
                fs, mini(n_files=150), seed=7, max_operations=200_000
            )
            results.append(
                (result.operations, result.fragmentation.internal_fraction)
            )
        assert results[0] == results[1]


class TestLatencyDiagnostics:
    def test_latency_recorded_per_operation(self):
        sim, fs = make_fs()
        driver = WorkloadDriver(sim, fs, mini(n_files=6), seed=8)
        driver.populate()
        driver.start_users()
        sim.run(until=3_000.0)
        assert "read" in driver.op_latency
        read_latency = driver.op_latency["read"]
        assert read_latency.count > 0
        assert read_latency.mean > 0.0  # reads take simulated time
        # Truncates are metadata-only: instant.
        if "truncate" in driver.op_latency:
            assert driver.op_latency["truncate"].mean == 0.0

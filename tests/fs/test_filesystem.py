"""Unit tests for the file-system layer on a real simulated disk."""

import pytest

from repro.alloc.buddy import BinaryBuddyAllocator
from repro.alloc.extent import ExtentAllocator, ExtentSizeConfig, FitPolicy
from repro.alloc.fixed import FixedBlockAllocator
from repro.audit.invariants import InvariantAuditor
from repro.disk.array import StripedArray
from repro.disk.geometry import TINY_DISK
from repro.errors import DiskFullError, FileSystemError
from repro.fs.filesystem import FileSystem
from repro.sim.engine import Simulator
from repro.sim.meters import ThroughputMeter
from repro.sim.rng import RandomStream
from repro.units import KIB


def make_fs(sim=None, allocator_factory=None):
    sim = sim or Simulator()
    array = StripedArray(sim, TINY_DISK, 4, 24 * KIB, KIB)
    if allocator_factory is None:
        allocator = ExtentAllocator(
            array.capacity_units,
            ExtentSizeConfig(range_means_units=(16,)),
            FitPolicy.FIRST_FIT,
            RandomStream(1),
        )
    else:
        allocator = allocator_factory(array.capacity_units)
    return sim, FileSystem(sim, array, allocator)


def run(sim, generator):
    holder = {}

    def wrapper():
        holder["result"] = yield from generator

    sim.process(wrapper())
    sim.run()
    return holder["result"]


class TestLifecycle:
    def test_create_and_allocate_to(self):
        sim, fs = make_fs()
        f = fs.create(size_hint_bytes=32 * KIB, tag="t")
        fs.allocate_to(f, 32 * KIB)
        assert f.length_bytes == 32 * KIB
        assert f.allocated_units >= 32

    def test_allocate_to_never_shrinks_length(self):
        sim, fs = make_fs()
        f = fs.create()
        fs.allocate_to(f, 10 * KIB)
        fs.allocate_to(f, 5 * KIB)
        assert f.length_bytes == 10 * KIB

    def test_delete_frees_everything(self):
        sim, fs = make_fs()
        f = fs.create()
        fs.allocate_to(f, 64 * KIB)
        allocated = fs.allocator.allocated_units
        assert allocated > 0
        fs.delete(f)
        assert fs.allocator.allocated_units == 0
        with pytest.raises(FileSystemError):
            fs.truncate(f, 1)

    def test_truncate_shortens_and_frees(self):
        sim, fs = make_fs()
        f = fs.create()
        fs.allocate_to(f, 64 * KIB)
        removed = fs.truncate(f, 16 * KIB)
        assert removed == 16 * KIB
        assert f.length_bytes == 48 * KIB

    def test_truncate_clamps_to_length(self):
        sim, fs = make_fs()
        f = fs.create()
        fs.allocate_to(f, 8 * KIB)
        assert fs.truncate(f, 100 * KIB) == 8 * KIB
        assert f.length_bytes == 0

    def test_live_files_listing(self):
        sim, fs = make_fs()
        a, b = fs.create(), fs.create()
        assert [x.fs_id for x in fs.live_files()] == [a.fs_id, b.fs_id]


class TestIo:
    def test_read_takes_simulated_time(self):
        sim, fs = make_fs()
        f = fs.create()
        fs.allocate_to(f, 64 * KIB)
        assert sim.now == 0.0
        n = run(sim, fs.read(f, 0, 8 * KIB))
        assert n == 8 * KIB
        assert sim.now > 0.0
        assert fs.bytes_read == 8 * KIB

    def test_read_clamps_to_eof(self):
        sim, fs = make_fs()
        f = fs.create()
        fs.allocate_to(f, 4 * KIB)
        n = run(sim, fs.read(f, 2 * KIB, 100 * KIB))
        assert n == 2 * KIB

    def test_read_past_eof_returns_zero_instantly(self):
        sim, fs = make_fs()
        f = fs.create()
        fs.allocate_to(f, 4 * KIB)
        n = run(sim, fs.read(f, 8 * KIB, KIB))
        assert n == 0
        assert sim.now == 0.0

    def test_write_within_file(self):
        sim, fs = make_fs()
        f = fs.create()
        fs.allocate_to(f, 16 * KIB)
        n = run(sim, fs.write(f, 0, 4 * KIB))
        assert n == 4 * KIB
        assert fs.bytes_written == 4 * KIB

    def test_write_past_eof_grows_file(self):
        sim, fs = make_fs()
        f = fs.create()
        fs.allocate_to(f, 8 * KIB)
        run(sim, fs.write(f, 6 * KIB, 6 * KIB))
        assert f.length_bytes == 12 * KIB

    def test_write_far_past_eof_appends_without_hole(self):
        sim, fs = make_fs()
        f = fs.create()
        fs.allocate_to(f, 4 * KIB)
        run(sim, fs.write(f, 100 * KIB, 4 * KIB))
        assert f.length_bytes == 8 * KIB  # offset clamped to EOF

    def test_extend_appends(self):
        sim, fs = make_fs()
        f = fs.create()
        fs.allocate_to(f, 4 * KIB)
        n = run(sim, fs.extend(f, 8 * KIB))
        assert n == 8 * KIB
        assert f.length_bytes == 12 * KIB

    def test_read_whole_and_write_whole(self):
        sim, fs = make_fs()
        f = fs.create()
        fs.allocate_to(f, 40 * KIB)
        assert run(sim, fs.read_whole(f)) == 40 * KIB
        assert run(sim, fs.write_whole(f)) == 40 * KIB

    def test_write_whole_empty_file_is_noop(self):
        sim, fs = make_fs()
        f = fs.create()
        assert run(sim, fs.write_whole(f)) == 0

    def test_bad_arguments_raise(self):
        sim, fs = make_fs()
        f = fs.create()
        fs.allocate_to(f, 4 * KIB)
        with pytest.raises(FileSystemError):
            run(sim, fs.read(f, -1, 10))
        with pytest.raises(FileSystemError):
            run(sim, fs.write(f, 0, 0))
        with pytest.raises(FileSystemError):
            run(sim, fs.extend(f, -5))

    def test_meter_records_transfers(self):
        sim, fs = make_fs()
        meter = ThroughputMeter(1000.0, interval_ms=10.0)
        sim.meter = meter
        f = fs.create()
        fs.allocate_to(f, 8 * KIB)
        run(sim, fs.read(f, 0, 8 * KIB))
        assert meter.total_bytes == 8 * KIB

    def test_disk_full_propagates_from_write(self):
        sim, fs = make_fs(
            allocator_factory=lambda units: FixedBlockAllocator(units, 4)
        )
        f = fs.create()
        with pytest.raises(DiskFullError):
            fs.allocate_to(f, 10**12)


class TestFragmentationView:
    def test_fragmentation_uses_lengths(self):
        sim, fs = make_fs(
            allocator_factory=lambda units: FixedBlockAllocator(units, 4)
        )
        f = fs.create()
        fs.allocate_to(f, KIB)  # 1K in a 4K block
        report = fs.fragmentation()
        assert report.internal_fraction == pytest.approx(3 / 8)

    def test_utilization_tracks_allocator(self):
        sim, fs = make_fs()
        assert fs.utilization == 0.0
        f = fs.create()
        fs.allocate_to(f, 100 * KIB)
        assert fs.utilization > 0.0


def _leading_runs(extents, n_units):
    """The first ``n_units`` of a file's extents as adjacency-merged runs."""
    runs: list[tuple[int, int]] = []
    for extent in extents:
        if n_units <= 0:
            break
        take = min(extent.length, n_units)
        if runs and runs[-1][0] + runs[-1][1] == extent.start:
            runs[-1] = (runs[-1][0], runs[-1][1] + take)
        else:
            runs.append((extent.start, take))
        n_units -= take
    return runs


class TestReorganize:
    def test_reads_after_reorganize_use_the_new_extents_only(self):
        sim, fs = make_fs(allocator_factory=BinaryBuddyAllocator)
        files = []
        for length_kib in (40, 100, 7, 300):
            f = fs.create()
            # 4K requests make buddy double in many small extents.
            fs.allocate_to(f, length_kib * KIB, step_bytes=4 * KIB)
            files.append(f)
        fs.truncate(files[3], 120 * KIB)
        old = {f.fs_id: list(f.handle.extents) for f in files}

        assert fs.reorganize(max_extents=3) >= 2
        reshaped = [f for f in files if f.handle.extents != old[f.fs_id]]
        assert len(reshaped) >= 2

        issued = []
        transfer = fs.disk.transfer

        def record(kind, start, n_units):
            issued.append((start, n_units))
            return transfer(kind, start, n_units)

        fs.disk.transfer = record
        for f in files:
            issued.clear()
            assert run(sim, fs.read_whole(f)) == f.length_bytes
            needed = -(-f.length_bytes // KIB)
            assert issued == _leading_runs(f.handle.extents, needed)
            if f in reshaped:
                stale = {
                    unit for e in old[f.fs_id] for unit in range(e.start, e.end)
                } - {
                    unit for e in f.handle.extents
                    for unit in range(e.start, e.end)
                }
                assert stale
                assert not any(
                    start <= unit < start + n
                    for start, n in issued for unit in stale
                )
        auditor = InvariantAuditor()
        auditor.observe(fs=fs, allocator=fs.allocator)
        assert ("fs", "extmap-consistency") in [
            (subsystem, name) for subsystem, name, _ in auditor.checks
        ]
        auditor.sweep(sim, fingerprint=False)

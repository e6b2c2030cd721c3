"""Unit tests for the striped and concatenated disk organizations."""

import pytest

from repro.disk.array import ConcatArray, StripedArray
from repro.disk.geometry import TINY_DISK, WREN_IV
from repro.disk.request import IoKind
from repro.errors import ConfigurationError, InvalidRequestError
from repro.sim.engine import Simulator
from repro.units import KIB


def make_striped(sim, n_disks=4, stripe=24 * KIB, unit=KIB, geometry=TINY_DISK):
    return StripedArray(sim, geometry, n_disks, stripe, unit)


def run_transfer(sim, array, kind, start, units):
    """Run one transfer to completion; return elapsed simulated ms."""
    done = {}

    def proc():
        yield array.transfer(kind, start, units)
        done["t"] = sim.now

    sim.process(proc())
    sim.run()
    return done["t"]


class TestMapping:
    def test_round_robin_stripes(self):
        sim = Simulator()
        array = make_striped(sim)
        stripe_units = array.stripe_unit_bytes // array.disk_unit_bytes
        for stripe in range(8):
            drive, byte = array.locate_unit(stripe * stripe_units)
            assert drive == stripe % 4
            assert byte == (stripe // 4) * array.stripe_unit_bytes

    def test_offset_within_stripe(self):
        sim = Simulator()
        array = make_striped(sim)
        drive, byte = array.locate_unit(5)  # 5K into stripe 0
        assert drive == 0
        assert byte == 5 * KIB

    def test_capacity_whole_stripes(self):
        sim = Simulator()
        array = make_striped(sim)
        assert array.capacity_bytes % array.stripe_unit_bytes == 0
        assert array.capacity_units == array.capacity_bytes // KIB

    def test_per_drive_runs_merge_rows(self):
        sim = Simulator()
        array = make_striped(sim)
        stripe_units = array.stripe_unit_bytes // array.disk_unit_bytes
        # Two full rounds: each drive should get ONE merged run of 2 stripes.
        runs = array.split(0, 8 * stripe_units)
        assert runs == [
            (drive, 0, 2 * array.stripe_unit_bytes)
            for drive in range(array.n_disks)
        ]

    def test_split_inside_one_stripe_unit(self):
        sim = Simulator()
        array = make_striped(sim)
        # Units 30..33 sit 6K..10K into stripe 1 (drive 1, row 0).
        assert array.split(30, 4) == [(1, 6 * KIB, 4 * KIB)]

    def test_split_unaligned_span_is_drive_major(self):
        sim = Simulator()
        array = make_striped(sim)
        # 20K into stripe 3 (drive 3, row 0), through stripes 4 and 5
        # (drives 0 and 1, row 1), ending 2K into stripe 6 (drive 2).
        assert array.split(92, 54) == [
            (0, 24 * KIB, 24 * KIB),
            (1, 24 * KIB, 24 * KIB),
            (2, 24 * KIB, 2 * KIB),
            (3, 20 * KIB, 4 * KIB),
        ]

    def test_bad_stripe_unit_raises(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            StripedArray(sim, TINY_DISK, 4, 1500, 1024)  # not unit multiple

    def test_zero_disks_raises(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            StripedArray(sim, TINY_DISK, 0, 24 * KIB, KIB)


class TestStripedTransfers:
    def test_transfer_out_of_range_raises(self):
        sim = Simulator()
        array = make_striped(sim)
        with pytest.raises(InvalidRequestError):
            array.transfer(IoKind.READ, array.capacity_units - 1, 2)
        with pytest.raises(InvalidRequestError):
            array.transfer(IoKind.READ, 0, 0)

    def test_small_transfer_touches_one_drive(self):
        sim = Simulator()
        array = make_striped(sim)
        run_transfer(sim, array, IoKind.READ, 0, 8)
        busy_drives = [d for d in array.drives if d.requests_served]
        assert len(busy_drives) == 1

    def test_large_transfer_uses_all_drives(self):
        sim = Simulator()
        array = make_striped(sim)
        stripe_units = array.stripe_unit_bytes // array.disk_unit_bytes
        run_transfer(sim, array, IoKind.READ, 0, 8 * stripe_units)
        assert all(d.requests_served == 1 for d in array.drives)

    def test_parallelism_speedup(self):
        """Reading N stripes striped over N disks beats one disk serially."""
        sim_striped = Simulator()
        array = StripedArray(sim_striped, WREN_IV, 8, 24 * KIB, KIB)
        stripe_units = 24
        t_striped = run_transfer(
            sim_striped, array, IoKind.READ, 0, 8 * stripe_units
        )

        sim_single = Simulator()
        single = StripedArray(sim_single, WREN_IV, 1, 24 * KIB, KIB)
        t_single = run_transfer(
            sim_single, single, IoKind.READ, 0, 8 * stripe_units
        )
        assert t_striped < t_single / 3  # parallel across 8 spindles

    def test_sequential_throughput_near_max(self):
        """A long sequential striped read approaches the rated bandwidth."""
        sim = Simulator()
        array = StripedArray(sim, WREN_IV, 8, 24 * KIB, KIB)
        n_units = 16 * 1024  # 16 MiB
        elapsed = run_transfer(sim, array, IoKind.READ, 0, n_units)
        rate = n_units * KIB / elapsed
        assert rate / array.max_bandwidth_bytes_per_ms > 0.9

    def test_total_bytes_moved(self):
        sim = Simulator()
        array = make_striped(sim)
        run_transfer(sim, array, IoKind.WRITE, 0, 100)
        assert array.total_bytes_moved == 100 * KIB


class TestConcatArray:
    def test_linear_concatenation(self):
        sim = Simulator()
        array = ConcatArray(sim, TINY_DISK, 3, KIB)
        per_drive = TINY_DISK.capacity_bytes
        drive, byte = array.locate_unit(per_drive // KIB)
        assert drive == 1
        assert byte == 0

    def test_single_file_read_stays_on_one_drive(self):
        sim = Simulator()
        array = ConcatArray(sim, TINY_DISK, 3, KIB)
        run_transfer(sim, array, IoKind.READ, 10, 100)
        assert sum(1 for d in array.drives if d.requests_served) == 1

    def test_cross_drive_span_splits(self):
        sim = Simulator()
        array = ConcatArray(sim, TINY_DISK, 2, KIB)
        per_drive_units = TINY_DISK.capacity_bytes // KIB
        run_transfer(sim, array, IoKind.READ, per_drive_units - 4, 8)
        assert all(d.requests_served == 1 for d in array.drives)

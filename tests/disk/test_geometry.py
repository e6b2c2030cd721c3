"""Unit tests for disk geometry: Table 1's drive and derived quantities."""

import pytest

from repro.disk.geometry import TINY_DISK, WREN_IV, DiskGeometry, paper_array_capacity_bytes
from repro.errors import ConfigurationError
from repro.units import KIB, MIB


class TestWrenIV:
    """The simulated CDC Wren IV must match Table 1."""

    def test_layout_parameters(self):
        assert WREN_IV.platters == 9
        assert WREN_IV.cylinders == 1600
        assert WREN_IV.track_bytes == 24 * KIB
        assert WREN_IV.rotation_ms == pytest.approx(16.67)

    def test_paper_capacity_is_2_8_gigabytes(self):
        # Table 1: 8 disks, "Total Capacity 2.8 G" (decimal gigabytes).
        total = paper_array_capacity_bytes(8)
        assert total == 2_831_155_200
        assert 2.8e9 < total < 2.9e9

    def test_paper_max_throughput_near_10_8(self):
        # Table 1: "Maximum Throughput 10.8 M/sec" for the 8-disk system.
        rate_mib_s = 8 * WREN_IV.sustained_bytes_per_ms * 1000 / MIB
        assert rate_mib_s == pytest.approx(10.8, abs=0.2)

    def test_seek_formula(self):
        # "an N track seek takes ST + N*SI ms"
        assert WREN_IV.seek_time(0) == 0.0
        assert WREN_IV.seek_time(1) == pytest.approx(5.5 + 0.032)
        assert WREN_IV.seek_time(100) == pytest.approx(5.5 + 3.2)

    def test_full_stroke_seek_reasonable(self):
        full = WREN_IV.seek_time(WREN_IV.cylinders - 1)
        assert 50.0 < full < 60.0  # 5.5 + 1599*0.032 ≈ 56.7 ms


class TestDerived:
    def test_tracks_and_cylinder_bytes(self):
        assert TINY_DISK.cylinder_bytes == TINY_DISK.platters * TINY_DISK.track_bytes

    def test_transfer_time_proportional(self):
        half_track = WREN_IV.transfer_ms(WREN_IV.track_bytes // 2)
        assert half_track == pytest.approx(WREN_IV.rotation_ms / 2)

    def test_negative_seek_distance_raises(self):
        with pytest.raises(ConfigurationError):
            WREN_IV.seek_time(-1)


class TestScaling:
    def test_scaled_capacity(self):
        half = WREN_IV.scaled(0.5)
        assert half.cylinders == 800
        assert half.capacity_bytes == WREN_IV.capacity_bytes // 2

    def test_scaling_preserves_timing(self):
        small = WREN_IV.scaled(0.1)
        assert small.rotation_ms == WREN_IV.rotation_ms
        assert small.single_track_seek_ms == WREN_IV.single_track_seek_ms
        assert small.sustained_bytes_per_ms == WREN_IV.sustained_bytes_per_ms

    def test_scale_floor_one_cylinder(self):
        assert WREN_IV.scaled(1e-9).cylinders == 1

    def test_bad_scale_raises(self):
        with pytest.raises(ConfigurationError):
            WREN_IV.scaled(0.0)


class TestValidation:
    def test_zero_platters_raises(self):
        with pytest.raises(ConfigurationError):
            DiskGeometry(0, 10, 1024, 5.0, 0.1, 16.0)

    def test_zero_rotation_raises(self):
        with pytest.raises(ConfigurationError):
            DiskGeometry(1, 10, 1024, 5.0, 0.1, 0.0)

    def test_negative_seek_raises(self):
        with pytest.raises(ConfigurationError):
            DiskGeometry(1, 10, 1024, -5.0, 0.1, 16.0)

"""Unit tests for the single-drive timing model."""

import pytest

from repro.disk.drive import DiskDrive
from repro.disk.geometry import TINY_DISK, WREN_IV
from repro.disk.request import DiskRequest, IoKind
from repro.errors import InvalidRequestError


def read(start, length):
    return DiskRequest(IoKind.READ, start, length)


class TestAddressing:
    def test_cylinder_major_layout(self):
        drive = DiskDrive(TINY_DISK)
        cylinder_bytes = TINY_DISK.cylinder_bytes
        assert drive.cylinder_of(0) == 0
        assert drive.cylinder_of(cylinder_bytes - 1) == 0
        assert drive.cylinder_of(cylinder_bytes) == 1

    def test_start_angle_within_track(self):
        drive = DiskDrive(TINY_DISK)
        quarter = TINY_DISK.track_bytes // 4
        assert drive.start_angle(quarter) == pytest.approx(0.25)

    def test_cylinder_skew_applied(self):
        drive = DiskDrive(TINY_DISK)
        angle0 = drive.start_angle(0)
        angle_next_cyl = drive.start_angle(TINY_DISK.cylinder_bytes)
        expected_skew = (TINY_DISK.seek_time(1) / TINY_DISK.rotation_ms) % 1.0
        assert (angle_next_cyl - angle0) % 1.0 == pytest.approx(expected_skew)


class TestTransferTime:
    def test_partial_track(self):
        drive = DiskDrive(WREN_IV)
        t = drive.transfer_time(0, WREN_IV.track_bytes // 2)
        assert t == pytest.approx(WREN_IV.rotation_ms / 2)

    def test_whole_cylinder_has_no_seek(self):
        drive = DiskDrive(WREN_IV)
        t = drive.transfer_time(0, WREN_IV.cylinder_bytes)
        assert t == pytest.approx(WREN_IV.platters * WREN_IV.rotation_ms)

    def test_cylinder_crossing_adds_track_seek(self):
        drive = DiskDrive(WREN_IV)
        two_cylinders = drive.transfer_time(0, 2 * WREN_IV.cylinder_bytes)
        expected = 2 * WREN_IV.platters * WREN_IV.rotation_ms + WREN_IV.seek_time(1)
        assert two_cylinders == pytest.approx(expected)

    def test_transfer_time_o1_for_large_spans(self):
        drive = DiskDrive(WREN_IV)
        # A quarter of the drive in one call; just verify it computes.
        span = WREN_IV.capacity_bytes // 4
        assert drive.transfer_time(0, span) > 0


class TestService:
    def test_sequential_service_has_no_rotation_loss(self):
        """Two back-to-back sequential reads: the second incurs neither
        seek nor rotational delay (deterministic angular continuity)."""
        drive = DiskDrive(WREN_IV)
        first = drive.service(read(0, 8 * 1024), 0.0)
        t = first.total_ms
        second = drive.service(read(8 * 1024, 8 * 1024), t)
        assert second.seek_ms == 0.0
        assert second.rotation_ms == pytest.approx(0.0, abs=1e-6)

    def test_seek_charged_for_distance(self):
        drive = DiskDrive(WREN_IV)
        drive.head_cylinder = 0
        far = WREN_IV.cylinder_bytes * 100
        breakdown = drive.service(read(far, 1024), 0.0)
        assert breakdown.seek_ms == pytest.approx(WREN_IV.seek_time(100))

    def test_head_moves_to_end_of_transfer(self):
        drive = DiskDrive(WREN_IV)
        drive.service(read(0, 2 * WREN_IV.cylinder_bytes), 0.0)
        assert drive.head_cylinder == 1

    def test_rotation_bounded_by_one_revolution(self):
        drive = DiskDrive(WREN_IV)
        for start_ms in (0.0, 3.3, 7.7, 12.1):
            breakdown = drive.service(read(5 * 1024, 1024), start_ms)
            assert 0.0 <= breakdown.rotation_ms < WREN_IV.rotation_ms

    def test_request_past_capacity_raises(self):
        drive = DiskDrive(TINY_DISK)
        with pytest.raises(InvalidRequestError):
            drive.service(read(TINY_DISK.capacity_bytes - 512, 1024), 0.0)

    def test_breakdown_total(self):
        drive = DiskDrive(WREN_IV)
        breakdown = drive.service(read(123456, 4096), 1.0)
        assert breakdown.total_ms == pytest.approx(
            breakdown.seek_ms + breakdown.rotation_ms + breakdown.transfer_ms
        )


class TestLowerBound:
    def test_transfer_time_negative_start_raises(self):
        drive = DiskDrive(TINY_DISK)
        with pytest.raises(InvalidRequestError):
            drive.transfer_time(-1, 1024)

    def test_transfer_time_zero_length_raises(self):
        # A zero-length span would place its "last byte" before its first
        # and compute negative track crossings; it must be rejected, not
        # silently reported as a (slightly negative) transfer time.
        drive = DiskDrive(TINY_DISK)
        with pytest.raises(InvalidRequestError):
            drive.transfer_time(0, 0)
        with pytest.raises(InvalidRequestError):
            drive.transfer_time(4096, -512)

    def test_service_negative_start_raises_and_leaves_head(self):
        # Bypass DiskRequest's own validation to prove the drive checks
        # the lower bound itself (a negative offset would otherwise yield
        # a negative cylinder and a bogus seek).
        drive = DiskDrive(TINY_DISK)
        broken = object.__new__(DiskRequest)
        object.__setattr__(broken, "kind", IoKind.READ)
        object.__setattr__(broken, "start_byte", -4096)
        object.__setattr__(broken, "n_bytes", 1024)
        with pytest.raises(InvalidRequestError):
            drive.service(broken, 0.0)
        assert drive.head_cylinder == 0


class TestRequestValidation:
    def test_negative_start_raises(self):
        with pytest.raises(InvalidRequestError):
            DiskRequest(IoKind.READ, -1, 10)

    def test_zero_length_raises(self):
        with pytest.raises(InvalidRequestError):
            DiskRequest(IoKind.WRITE, 0, 0)

    def test_end_byte(self):
        assert read(10, 5).end_byte == 15

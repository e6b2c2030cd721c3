"""Unit tests for operation planning and offset selection."""

from repro.sim.rng import RandomStream
from repro.workload.filetype import AccessPattern, Operation
from repro.workload.ops import (
    pick_offset,
    plan_operation,
    prepare_weights,
    sample_initial_size,
    sample_rw_size,
)
from tests.workload.test_filetype import make_type


class TestPlanning:
    def test_pick_operation_respects_weights(self):
        rng = RandomStream(1)
        file_type = make_type()
        weights = prepare_weights({Operation.READ: 100.0, Operation.WRITE: 0.0})
        assert all(
            plan_operation(rng, file_type, weights)[0] is Operation.READ
            for _ in range(50)
        )

    def test_rw_size_positive(self):
        rng = RandomStream(2)
        file_type = make_type(rw_size_bytes=100, rw_deviation_bytes=500)
        assert all(sample_rw_size(rng, file_type) >= 1 for _ in range(200))

    def test_initial_size_uniform_bounds(self):
        rng = RandomStream(3)
        file_type = make_type(initial_size_bytes=1000, initial_deviation_bytes=200)
        for _ in range(200):
            size = sample_initial_size(rng, file_type)
            assert 800 <= size <= 1200

    def test_truncate_uses_truncate_size(self):
        rng = RandomStream(4)
        file_type = make_type(
            read_ratio=0.0, write_ratio=0.0, extend_ratio=0.0,
            truncate_ratio=100.0, delete_ratio=0.0,
        )
        op, size = plan_operation(
            rng, file_type, prepare_weights(file_type.operation_weights)
        )
        assert op is Operation.TRUNCATE
        assert size == file_type.truncate_size_bytes

    def test_delete_size_is_replacement_initial(self):
        rng = RandomStream(5)
        file_type = make_type(
            read_ratio=0.0, write_ratio=0.0, extend_ratio=0.0,
            truncate_ratio=0.0, delete_ratio=100.0,
            initial_size_bytes=5000, initial_deviation_bytes=0,
        )
        op, size = plan_operation(
            rng, file_type, prepare_weights(file_type.operation_weights)
        )
        assert op is Operation.DELETE
        assert size == 5000


class TestOffsets:
    def test_random_offsets_stay_in_file(self):
        rng = RandomStream(6)
        file_type = make_type()
        for _ in range(200):
            offset, _ = pick_offset(rng, file_type, 100_000, 0, 8192)
            assert 0 <= offset <= 100_000 - 8192

    def test_random_offset_empty_file(self):
        rng = RandomStream(7)
        assert pick_offset(rng, make_type(), 0, 0, 100) == (0, 0)

    def test_sequential_cursor_advances(self):
        rng = RandomStream(8)
        file_type = make_type(access=AccessPattern.SEQUENTIAL)
        offset, cursor = pick_offset(rng, file_type, 100_000, 0, 1000)
        assert offset == 0
        assert cursor == 1000
        offset, cursor = pick_offset(rng, file_type, 100_000, cursor, 1000)
        assert offset == 1000

    def test_sequential_cursor_wraps(self):
        rng = RandomStream(9)
        file_type = make_type(access=AccessPattern.SEQUENTIAL)
        offset, cursor = pick_offset(rng, file_type, 10_000, 9_500, 1000)
        assert offset == 9_500
        assert cursor == 0  # wrapped past EOF

    def test_sequential_cursor_beyond_eof_restarts(self):
        rng = RandomStream(10)
        file_type = make_type(access=AccessPattern.SEQUENTIAL)
        offset, _ = pick_offset(rng, file_type, 5_000, 9_000, 1000)
        assert offset == 0

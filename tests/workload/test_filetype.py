"""Unit tests for the Table 2 file-type parameters."""

import pytest

from repro.errors import ConfigurationError
from repro.workload.filetype import AccessPattern, FileType, Operation


def make_type(**overrides):
    parameters = dict(
        name="t",
        n_files=10,
        n_users=2,
        process_time_ms=10.0,
        hit_frequency_ms=20.0,
        rw_size_bytes=8192,
        rw_deviation_bytes=1024,
        allocation_size_bytes=8192,
        truncate_size_bytes=4096,
        initial_size_bytes=8192,
        initial_deviation_bytes=2048,
        read_ratio=60.0,
        write_ratio=15.0,
        extend_ratio=15.0,
        truncate_ratio=5.0,
        delete_ratio=5.0,
    )
    parameters.update(overrides)
    return FileType(**parameters)


class TestValidation:
    def test_valid_type_constructs(self):
        assert make_type().name == "t"

    def test_ratios_must_sum_to_100(self):
        with pytest.raises(ConfigurationError):
            make_type(read_ratio=50.0)

    def test_negative_size_raises(self):
        with pytest.raises(ConfigurationError):
            make_type(rw_size_bytes=-1)

    def test_zero_users_raises(self):
        with pytest.raises(ConfigurationError):
            make_type(n_users=0)


class TestWeights:
    def test_operation_weights(self):
        weights = make_type().operation_weights
        assert weights[Operation.READ] == 60.0
        assert sum(weights.values()) == pytest.approx(100.0)

    def test_allocation_weights_drop_reads_and_writes(self):
        weights = make_type().allocation_weights
        assert Operation.READ not in weights
        assert Operation.WRITE not in weights
        assert weights[Operation.EXTEND] == 15.0

    def test_sequential_weights(self):
        weights = make_type().sequential_weights
        assert set(weights) == {Operation.READ, Operation.WRITE}

    def test_sequential_weights_default_to_reads(self):
        log_like = make_type(
            read_ratio=0.0, write_ratio=0.0, extend_ratio=95.0,
            truncate_ratio=5.0, delete_ratio=0.0,
        )
        assert log_like.sequential_weights[Operation.READ] == 100.0


class TestDerived:
    def test_event_rate(self):
        assert make_type(n_users=4, process_time_ms=2.0).event_rate == 2.0

    def test_event_rate_zero_process_time(self):
        assert make_type(process_time_ms=0.0).event_rate == 2.0

    def test_scaled_sizes(self):
        scaled = make_type().scaled_sizes(0.5)
        assert scaled.initial_size_bytes == 4096
        assert scaled.rw_size_bytes == 8192  # request sizes never scale
        assert scaled.truncate_size_bytes == 4096
        assert scaled.n_files == 10  # counts unscaled

    def test_scaled_sizes_floor(self):
        scaled = make_type().scaled_sizes(0.0001)
        assert scaled.initial_size_bytes == 1024  # default floor

    def test_scaled_sizes_bad_factor(self):
        with pytest.raises(ConfigurationError):
            make_type().scaled_sizes(0.0)

    def test_access_pattern_default_random(self):
        assert make_type().access is AccessPattern.RANDOM

"""Unit tests for size parsing/formatting helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.units import (
    GIB,
    KIB,
    MIB,
    ceil_div,
    format_size,
    next_power_of_two,
    parse_size,
)


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("8K", 8 * KIB),
            ("1M", MIB),
            ("2.8G", int(2.8 * GIB)),
            ("512", 512),
            ("512B", 512),
            ("16m", 16 * MIB),
            ("1kb", KIB),
            ("1KiB", KIB),
            (" 24 K ", 24 * KIB),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_size(text) == expected

    def test_numbers_pass_through(self):
        assert parse_size(4096) == 4096
        assert parse_size(4096.4) == 4096

    def test_bad_suffix_raises(self):
        with pytest.raises(ConfigurationError):
            parse_size("8Q")

    def test_bad_number_raises(self):
        with pytest.raises(ConfigurationError):
            parse_size("K")


class TestFormatSize:
    def test_clean_units(self):
        assert format_size(8 * KIB) == "8K"
        assert format_size(16 * MIB) == "16M"
        assert format_size(512) == "512B"

    def test_fractional(self):
        assert format_size(int(2.7 * GIB)) == "2.7G"

    def test_roundtrip(self):
        for value in (KIB, 24 * KIB, 512 * KIB, 16 * MIB, GIB):
            assert parse_size(format_size(value)) == value


class TestMath:
    def test_ceil_div(self):
        assert ceil_div(10, 3) == 4
        assert ceil_div(9, 3) == 3
        assert ceil_div(0, 5) == 0

    def test_ceil_div_bad_denominator(self):
        with pytest.raises(ConfigurationError):
            ceil_div(1, 0)

    def test_next_power_of_two(self):
        assert next_power_of_two(0) == 1
        assert next_power_of_two(1) == 1
        assert next_power_of_two(5) == 8
        assert next_power_of_two(8) == 8
        assert next_power_of_two(4097) == 8192

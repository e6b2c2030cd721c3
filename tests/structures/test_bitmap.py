"""Unit + property tests for the max-block bitmap."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from tests.oracles.bitmap import Bitmap


class TestBasics:
    def test_all_set_construction(self):
        bitmap = Bitmap(8, all_set=True)
        assert bitmap.set_count == 8
        assert bitmap.set_bits() == list(range(8))

    def test_all_clear_construction(self):
        bitmap = Bitmap(8)
        assert bitmap.set_count == 0
        assert bitmap.set_bits() == []

    def test_set_then_test(self):
        bitmap = Bitmap(16)
        bitmap.set(3)
        assert bitmap.test(3)
        assert not bitmap.test(4)

    def test_double_set_raises(self):
        bitmap = Bitmap(4)
        bitmap.set(1)
        with pytest.raises(SimulationError):
            bitmap.set(1)

    def test_double_clear_raises(self):
        bitmap = Bitmap(4)
        with pytest.raises(SimulationError):
            bitmap.clear(1)

    def test_out_of_range_raises(self):
        bitmap = Bitmap(4)
        with pytest.raises(SimulationError):
            bitmap.test(4)
        with pytest.raises(SimulationError):
            bitmap.set(-1)

    def test_negative_size_raises(self):
        with pytest.raises(SimulationError):
            Bitmap(-1)


class TestScans:
    def test_first_set_at_or_after(self):
        bitmap = Bitmap(64)
        bitmap.set(10)
        bitmap.set(40)
        assert bitmap.first_set_at_or_after(0) == 10
        assert bitmap.first_set_at_or_after(10) == 10
        assert bitmap.first_set_at_or_after(11) == 40
        assert bitmap.first_set_at_or_after(41) is None

    def test_first_set_in_range(self):
        bitmap = Bitmap(64)
        bitmap.set(10)
        assert bitmap.first_set_in_range(0, 10) is None
        assert bitmap.first_set_in_range(0, 11) == 10
        assert bitmap.first_set_in_range(10, 64) == 10

    def test_beyond_size_returns_none(self):
        bitmap = Bitmap(4, all_set=True)
        assert bitmap.first_set_at_or_after(4) is None


@given(st.sets(st.integers(min_value=0, max_value=255), max_size=64))
@settings(max_examples=100)
def test_property_set_bits_roundtrip(bits):
    bitmap = Bitmap(256)
    for bit in bits:
        bitmap.set(bit)
    assert bitmap.set_bits() == sorted(bits)
    assert bitmap.set_count == len(bits)
    for probe in range(0, 256, 17):
        expected = next((b for b in sorted(bits) if b >= probe), None)
        assert bitmap.first_set_at_or_after(probe) == expected

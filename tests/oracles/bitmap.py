"""Bitmap over maximum-size blocks.

"A bit map is used to record the state (free or used) of every maximum
sized block in the system."  Backed by a single Python integer (arbitrary
precision), which gives C-speed bit tests and find-first-set scans.
Bit ``i`` set means block ``i`` is free.
"""

from __future__ import annotations

from repro.errors import SimulationError


class Bitmap:
    """Fixed-size bitmap with set/clear/test and ordered free-bit scans."""

    __slots__ = ("size", "_bits", "_set_count")

    def __init__(self, size: int, all_set: bool = False) -> None:
        if size < 0:
            raise SimulationError(f"negative bitmap size: {size}")
        self.size = size
        self._bits = (1 << size) - 1 if all_set else 0
        self._set_count = size if all_set else 0

    def __len__(self) -> int:
        return self.size

    @property
    def set_count(self) -> int:
        """Number of set (free) bits."""
        return self._set_count

    def _check(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise SimulationError(f"bit {index} outside bitmap of {self.size}")

    def test(self, index: int) -> bool:
        """True when bit ``index`` is set."""
        self._check(index)
        return bool((self._bits >> index) & 1)

    def set(self, index: int) -> None:
        """Set bit ``index``; setting a set bit is an error (double free)."""
        self._check(index)
        mask = 1 << index
        if self._bits & mask:
            raise SimulationError(f"bit {index} already set")
        self._bits |= mask
        self._set_count += 1

    def clear(self, index: int) -> None:
        """Clear bit ``index``; clearing a clear bit is an error."""
        self._check(index)
        mask = 1 << index
        if not self._bits & mask:
            raise SimulationError(f"bit {index} already clear")
        self._bits &= ~mask
        self._set_count -= 1

    def first_set_at_or_after(self, index: int) -> int | None:
        """Lowest set bit >= ``index``, or None.

        Implemented by masking off the low bits and isolating the lowest
        survivor with ``x & -x`` — one big-int operation regardless of
        bitmap width.
        """
        if index >= self.size:
            return None
        index = max(index, 0)
        shifted = self._bits >> index
        if shifted == 0:
            return None
        lowest = shifted & -shifted
        return index + lowest.bit_length() - 1

    def first_set_in_range(self, low: int, high: int) -> int | None:
        """Lowest set bit in ``[low, high)``, or None."""
        found = self.first_set_at_or_after(low)
        if found is not None and found < high:
            return found
        return None

    def set_bits(self) -> list[int]:
        """All set bit indexes in order (tests / debugging)."""
        result = []
        bits = self._bits
        position = 0
        while bits:
            lowest = bits & -bits
            index = position + lowest.bit_length() - 1
            result.append(index)
            bits >>= index - position + 1
            position = index + 1
        return result

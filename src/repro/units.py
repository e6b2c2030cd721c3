"""Size units and helpers.

All byte quantities in the library use binary units (1 K = 1024 bytes), as
the paper's block sizes (1K, 8K, 64K, 1M, 16M) are conventional binary file
system block sizes.  Disk addresses are expressed in *disk units* (see
:mod:`repro.disk`); these helpers convert between the two.
"""

from __future__ import annotations

from .errors import ConfigurationError

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: Suffix multipliers accepted by :func:`parse_size`.
_SUFFIXES = {
    "": 1,
    "B": 1,
    "K": KIB,
    "KB": KIB,
    "KIB": KIB,
    "M": MIB,
    "MB": MIB,
    "MIB": MIB,
    "G": GIB,
    "GB": GIB,
    "GIB": GIB,
}


def parse_size(text: str | int | float) -> int:
    """Parse a human-readable size such as ``"8K"`` or ``"2.8G"`` into bytes.

    Integers and floats pass through (floats are rounded).  Strings consist
    of a number followed by an optional suffix from K/M/G (optionally with a
    trailing ``B`` or ``iB``); matching is case-insensitive.

    >>> parse_size("8K")
    8192
    >>> parse_size("1.5M")
    1572864
    >>> parse_size(4096)
    4096
    """
    if isinstance(text, (int, float)):
        value, factor = text, 1
    else:
        stripped = text.strip().upper()
        index = len(stripped)
        while index > 0 and stripped[index - 1].isalpha():
            index -= 1
        number_part, suffix = stripped[:index].strip(), stripped[index:]
        if suffix not in _SUFFIXES:
            raise ConfigurationError(f"unknown size suffix {suffix!r} in {text!r}")
        try:
            value, factor = float(number_part), _SUFFIXES[suffix]
        except ValueError as exc:
            raise ConfigurationError(f"cannot parse size {text!r}") from exc
    try:
        return int(round(value * factor))
    except (ValueError, OverflowError):  # NaN or an infinity
        raise ConfigurationError(f"cannot parse size {text!r}") from None


def format_size(n_bytes: int) -> str:
    """Format a byte count using the largest clean binary unit.

    >>> format_size(8192)
    '8K'
    >>> format_size(2936012800)
    '2.7G'
    """
    for suffix, factor in (("G", GIB), ("M", MIB), ("K", KIB)):
        if n_bytes >= factor:
            value = n_bytes / factor
            if value == int(value):
                return f"{int(value)}{suffix}"
            return f"{value:.1f}{suffix}"
    return f"{n_bytes}B"


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer division rounding up; denominator must be positive."""
    if denominator <= 0:
        raise ConfigurationError(f"denominator must be positive: {denominator}")
    return -(-numerator // denominator)


def next_power_of_two(value: int) -> int:
    """Round ``value`` up to the nearest power of two (minimum 1)."""
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()

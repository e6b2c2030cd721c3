"""A miniature workload profile for unit tests: fast, but every
operation type appears."""

from repro.units import parse_size
from repro.workload.filetype import AccessPattern, FileType
from repro.workload.profiles import Profile


def mini(
    n_files: int = 8,
    initial_size: str | int = "16K",
) -> Profile:
    """A small mixed workload of ``n_files`` files around ``initial_size``."""
    size = parse_size(initial_size)
    mixed = FileType(
        name="mini",
        n_files=n_files,
        n_users=4,
        process_time_ms=5.0,
        hit_frequency_ms=10.0,
        rw_size_bytes=max(1024, size // 4),
        rw_deviation_bytes=max(256, size // 16),
        allocation_size_bytes=max(1024, size // 4),
        truncate_size_bytes=max(1024, size // 4),
        initial_size_bytes=size,
        initial_deviation_bytes=size // 4,
        read_ratio=50.0,
        write_ratio=20.0,
        extend_ratio=15.0,
        truncate_ratio=7.5,
        delete_ratio=7.5,
        access=AccessPattern.RANDOM,
    )
    return Profile(name="MINI", types=(mixed,))

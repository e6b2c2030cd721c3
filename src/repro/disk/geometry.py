"""Disk drive geometry and timing parameters.

Each disk is described, exactly as in the paper's Table 1, by its physical
layout (track size, number of cylinders, number of platters) and its
performance characteristics (rotational speed and the two seek parameters).
The seek model is the paper's: "If ST is the single track seek time and SI
is the incremental seek time, then an N track seek takes ST + N*SI ms."

The module ships :data:`WREN_IV`, the CDC 5-1/4" Wren IV (94171-344) drive
with the simulated values from Table 1.  Eight of them give the paper's
2.8 G system, and the derived sustained bandwidth works out to the paper's
"Maximum Throughput 10.8 M/sec" (it is the cylinder-rate: nine track
revolutions plus one track-to-track seek per cylinder).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from ..errors import ConfigurationError
from ..units import KIB, MIB


@dataclass(frozen=True)
class DiskGeometry:
    """Physical layout and timing of one disk drive.

    Attributes:
        platters: recording surfaces (= heads = tracks per cylinder).
        cylinders: seek positions.
        track_bytes: formatted bytes per track.
        single_track_seek_ms: ST, the one-track seek time.
        incremental_seek_ms: SI, the per-track increment for longer seeks.
        rotation_ms: time for one full revolution.
        head_switch_ms: time to electronically switch heads within a
            cylinder (not in Table 1; defaults to 0, meaning ideal skew).
    """

    platters: int
    cylinders: int
    track_bytes: int
    single_track_seek_ms: float
    incremental_seek_ms: float
    rotation_ms: float
    head_switch_ms: float = 0.0
    name: str = "disk"

    def __post_init__(self) -> None:
        if self.platters <= 0 or self.cylinders <= 0 or self.track_bytes <= 0:
            raise ConfigurationError(f"non-positive geometry dimension in {self}")
        if self.rotation_ms <= 0:
            raise ConfigurationError("rotation time must be positive")
        if self.single_track_seek_ms < 0 or self.incremental_seek_ms < 0:
            raise ConfigurationError("seek times must be non-negative")
        if self.head_switch_ms < 0:
            raise ConfigurationError("head switch time must be non-negative")

    # -- derived layout -----------------------------------------------------

    @property
    def cylinder_bytes(self) -> int:
        """Bytes per cylinder (all tracks under the heads at one position)."""
        return self.platters * self.track_bytes

    @property
    def capacity_bytes(self) -> int:
        """Formatted capacity of the drive."""
        return self.cylinders * self.cylinder_bytes

    # -- timing ---------------------------------------------------------------

    def seek_time(self, cylinder_distance: int) -> float:
        """Seek time for a head movement of ``cylinder_distance`` cylinders.

        Zero distance costs nothing; an N-cylinder move costs
        ``ST + N * SI`` per the paper's model.
        """
        if cylinder_distance < 0:
            raise ConfigurationError(f"negative seek distance: {cylinder_distance}")
        if cylinder_distance == 0:
            return 0.0
        return self.single_track_seek_ms + cylinder_distance * self.incremental_seek_ms

    @cached_property
    def seek_table(self) -> tuple[float, ...]:
        """Seek time for every possible head movement, indexed by distance.

        ``seek_table[d] == seek_time(d)`` for ``0 <= d < cylinders`` (the
        largest movement a drive can make).  :class:`repro.disk.drive.
        DiskDrive` looks seek times up here instead of recomputing the
        linear model per request; the table is built lazily once per
        geometry and costs ``cylinders`` floats.
        """
        return tuple(self.seek_time(d) for d in range(self.cylinders))

    def transfer_ms(self, n_bytes: int) -> float:
        """Media-rate transfer time for ``n_bytes`` ignoring overheads."""
        return (n_bytes / self.track_bytes) * self.rotation_ms

    @property
    def sustained_bytes_per_ms(self) -> float:
        """Sustained sequential bandwidth of the drive.

        Reading a whole cylinder costs one revolution per track plus head
        switches, then a single-track seek to the next cylinder.  This is
        the denominator of every throughput figure in the study.
        """
        per_cylinder = (
            self.platters * self.rotation_ms
            + (self.platters - 1) * self.head_switch_ms
            + self.seek_time(1)
        )
        return self.cylinder_bytes / per_cylinder

    # -- scaling ----------------------------------------------------------------

    def scaled(self, factor: float) -> "DiskGeometry":
        """A drive with capacity scaled by ``factor`` (cylinder count).

        Timing characteristics are untouched, so a scaled system preserves
        the paper's per-request behaviour while letting tests fill a small
        disk quickly.  Factor must leave at least one cylinder.
        """
        if factor <= 0:
            raise ConfigurationError(f"scale factor must be positive: {factor}")
        cylinders = max(1, int(round(self.cylinders * factor)))
        return replace(self, cylinders=cylinders, name=f"{self.name}@{factor:g}x")


#: Table 1: CDC 5-1/4" Wren IV (94171-344) drive, simulated values.
WREN_IV = DiskGeometry(
    platters=9,
    cylinders=1600,
    track_bytes=24 * KIB,
    single_track_seek_ms=5.5,
    incremental_seek_ms=0.0320,
    rotation_ms=16.67,
    head_switch_ms=0.0,
    name="CDC Wren IV 94171-344",
)

#: A deliberately tiny drive (same timing) for unit tests: 64 tracks, 1.5 M.
TINY_DISK = DiskGeometry(
    platters=4,
    cylinders=16,
    track_bytes=24 * KIB,
    single_track_seek_ms=5.5,
    incremental_seek_ms=0.0320,
    rotation_ms=16.67,
    head_switch_ms=0.0,
    name="tiny test disk",
)


def paper_array_capacity_bytes(n_disks: int = 8) -> int:
    """Capacity of the paper's configuration: eight Wren IVs, "2.8 G"."""
    return n_disks * WREN_IV.capacity_bytes


# Sanity numbers used in Table 1's bench: 8 Wren IVs are 2.83e9 bytes
# ("2.8 G") and sustain ~10.8 MiB/s, matching the paper's table.
assert paper_array_capacity_bytes() == 2_831_155_200
assert 10.5 < 8 * WREN_IV.sustained_bytes_per_ms * 1000 / MIB < 11.1

"""Event-count pins: a disk request costs its completion, a join nothing.

A file-system transfer executes one timer event per drive request plus
one event to resume the waiting process; the array's and the file
system's joins count down inside the drive completion that finishes
them.
"""

import pytest

from repro.alloc.extent import ExtentAllocator, ExtentSizeConfig, FitPolicy
from repro.disk.array import StripedArray
from repro.disk.geometry import TINY_DISK
from repro.disk.raid import MirroredArray
from repro.fs.filesystem import FileSystem
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStream
from repro.units import KIB

STRIPE = 24 * KIB


def events_for(organization, op: str, n_bytes: int) -> tuple[int, int]:
    """(events after the process starts, drive requests) for one call."""
    sim = Simulator()
    disk = organization(sim, TINY_DISK, 4, STRIPE, KIB)
    allocator = ExtentAllocator(
        disk.capacity_units,
        ExtentSizeConfig(range_means_units=(16,)),
        FitPolicy.FIRST_FIT,
        RandomStream(1),
    )
    fs = FileSystem(sim, disk, allocator)
    fs_file = fs.create()
    fs.allocate_to(fs_file, 4 * STRIPE)

    def user():
        yield from getattr(fs, op)(fs_file, 0, n_bytes)

    sim.process(user())
    sim.run(stop_when=lambda: True)  # the start: submits, then suspends
    started = sim.events_executed
    sim.run()
    requests = sum(drive.requests_served for drive in disk.drives)
    return sim.events_executed - started, requests


def test_one_drive_striped_read_is_two_events():
    assert events_for(StripedArray, "read", 8 * KIB) == (2, 1)


def test_n_drive_striped_read_is_n_plus_one_events():
    assert events_for(StripedArray, "read", 4 * STRIPE) == (5, 4)


@pytest.mark.parametrize(
    "n_bytes, runs",
    [(8 * KIB, 2), (30 * KIB, 4), (4 * STRIPE, 8)],
)
def test_mirrored_write_over_k_runs_is_k_plus_one_events(n_bytes, runs):
    assert events_for(MirroredArray, "write", n_bytes) == (runs + 1, runs)

"""Analytic validation: the simulated drive matches closed-form models.

A simulation study is only credible if its substrate agrees with first
principles.  These tests drive the disk model with workloads whose
expected behaviour has a closed form, and check agreement:

* random single-sector reads: E[latency] = E[seek] + E[rotation] + transfer,
  with E[seek] = ST + SI·C/3 (mean |distance| of two uniform cylinder
  draws) and E[rotation] = half a revolution;
* sustained sequential throughput = the derived cylinder rate;
* an open queue below saturation stays stable (bounded queue wait), and
  beyond saturation the drive is busy essentially always.
"""

import pytest

from repro.disk.drive import DiskDrive
from repro.disk.geometry import WREN_IV
from repro.disk.queue import QueuedDrive
from repro.disk.request import DiskRequest, IoKind
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStream


def read(start, length=1024):
    return DiskRequest(IoKind.READ, start, length)


class TestRandomAccessLatency:
    def test_mean_latency_matches_first_principles(self):
        """1000 uniform random 1K reads vs the analytic expectation."""
        drive = DiskDrive(WREN_IV)
        rng = RandomStream(7)
        clock = 0.0
        total = 0.0
        n = 1000
        for _ in range(n):
            offset = rng.uniform_int(0, WREN_IV.capacity_bytes - 1024)
            breakdown = drive.service(read(offset), clock)
            total += breakdown.total_ms
            clock += breakdown.total_ms + rng.exponential(3.0)
        measured = total / n

        cylinders = WREN_IV.cylinders
        expected_seek = (
            WREN_IV.single_track_seek_ms
            + WREN_IV.incremental_seek_ms * cylinders / 3
        )
        expected_rotation = WREN_IV.rotation_ms / 2
        expected_transfer = WREN_IV.transfer_ms(1024)
        expected = expected_seek + expected_rotation + expected_transfer
        assert measured == pytest.approx(expected, rel=0.05)

    def test_rotation_uniform(self):
        """Rotational delays of random reads are ~uniform over a turn."""
        drive = DiskDrive(WREN_IV)
        rng = RandomStream(9)
        clock = 0.0
        delays = []
        for _ in range(2000):
            offset = rng.uniform_int(0, WREN_IV.capacity_bytes - 1024)
            breakdown = drive.service(read(offset), clock)
            delays.append(breakdown.rotation_ms)
            clock += breakdown.total_ms + rng.exponential(1.7)
        mean = sum(delays) / len(delays)
        assert mean == pytest.approx(WREN_IV.rotation_ms / 2, rel=0.08)
        assert max(delays) < WREN_IV.rotation_ms


class TestSequentialRate:
    def test_full_surface_scan_at_sustained_rate(self):
        """Reading many consecutive cylinders == the derived bandwidth."""
        drive = DiskDrive(WREN_IV)
        n_bytes = 50 * WREN_IV.cylinder_bytes
        breakdown = drive.service(DiskRequest(IoKind.READ, 0, n_bytes), 0.0)
        rate = n_bytes / breakdown.total_ms
        assert rate == pytest.approx(WREN_IV.sustained_bytes_per_ms, rel=0.01)


class TestQueueingBehaviour:
    def _run_open_queue(self, interarrival_ms, duration_ms=60_000):
        sim = Simulator()
        sim.metrics = MetricsRegistry()
        drive = QueuedDrive(sim, WREN_IV)
        rng = RandomStream(3)

        def arrivals():
            while True:
                offset = rng.uniform_int(0, WREN_IV.capacity_bytes - 8192)
                drive.submit(read(offset, 8192))
                yield rng.exponential(interarrival_ms)

        sim.process(arrivals())
        sim.run(until=duration_ms)
        return sim, drive

    def test_below_saturation_is_stable(self):
        # Service time ~ 33 ms; arrivals every 100 ms -> rho ~ 0.33.
        sim, drive = self._run_open_queue(interarrival_ms=100.0)
        assert drive.busy_ms / sim.now == pytest.approx(0.33, abs=0.08)
        waits = sim.metrics.histograms["disk.queue_wait_ms"].tally
        assert waits.mean < 40.0  # light queueing only

    def test_beyond_saturation_pins_the_drive(self):
        # Arrivals every 10 ms >> capacity: the drive never goes idle.
        sim, drive = self._run_open_queue(interarrival_ms=10.0)
        assert drive.busy_ms / sim.now > 0.95
        assert drive.queue_depth > 100  # unbounded backlog grows

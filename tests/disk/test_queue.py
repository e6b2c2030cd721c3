"""Unit tests for the per-drive FCFS queue."""

import random

import pytest

from repro.disk.geometry import WREN_IV
from repro.disk.queue import QueuedDrive
from repro.disk.request import DiskRequest, IoKind, ServiceBreakdown
from repro.errors import InvalidRequestError, SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator, Waitable


def read(start, length):
    return DiskRequest(IoKind.READ, start, length)


class TestFcfs:
    def test_single_request_completes(self):
        sim = Simulator()
        drive = QueuedDrive(sim, WREN_IV)
        done = {}

        def proc():
            breakdown = yield drive.submit(read(0, 8192))
            done["at"] = sim.now
            done["breakdown"] = breakdown

        sim.process(proc())
        sim.run()
        assert done["at"] == pytest.approx(done["breakdown"].total_ms)
        assert drive.requests_served == 1
        assert drive.bytes_moved == 8192

    def test_requests_serialize_in_order(self):
        sim = Simulator()
        drive = QueuedDrive(sim, WREN_IV)
        finish = {}

        def proc(tag, request):
            yield drive.submit(request)
            finish[tag] = sim.now

        sim.process(proc("a", read(0, 8192)))
        sim.process(proc("b", read(1_000_000, 8192)))
        sim.run()
        assert finish["a"] < finish["b"]
        assert not drive.busy
        assert drive.queue_depth == 0

    def test_busy_time_accumulates(self):
        sim = Simulator()
        drive = QueuedDrive(sim, WREN_IV)

        def proc():
            yield drive.submit(read(0, 8192))
            yield drive.submit(read(8192, 8192))

        sim.process(proc())
        sim.run()
        assert drive.busy_ms == pytest.approx(sim.now)

    def test_queue_wait_measured(self):
        sim = Simulator()
        sim.metrics = MetricsRegistry()
        drive = QueuedDrive(sim, WREN_IV)

        def proc():
            first = drive.submit(read(0, 24 * 1024))
            second = drive.submit(read(10_000_000, 1024))
            yield first
            yield second

        sim.process(proc())
        sim.run()
        waits = sim.metrics.histograms["disk.queue_wait_ms"].tally
        assert waits.count == 2
        assert waits.maximum > 0.0  # second waited behind first

    def test_idle_utilization_zero(self):
        sim = Simulator()
        drive = QueuedDrive(sim, WREN_IV)
        sim.run(until=100.0)
        assert drive.busy_ms == 0.0

    def test_latency_tally(self):
        sim = Simulator()
        sim.metrics = MetricsRegistry()
        drive = QueuedDrive(sim, WREN_IV)

        def proc():
            yield drive.submit(read(0, 1024))

        sim.process(proc())
        sim.run()
        latency = sim.metrics.histograms["disk.service_ms"].tally
        assert latency.count == 1
        assert latency.mean > 0


class TestDriveMetering:
    def test_owner_meter_credited_per_request(self):
        from repro.sim.meters import ThroughputMeter

        sim = Simulator()
        sim.meter = ThroughputMeter(1e9, interval_ms=1e6)
        drive = QueuedDrive(sim, WREN_IV)

        def proc():
            yield drive.submit(read(0, 8192))
            yield drive.submit(read(8192, 8192))

        sim.process(proc())
        sim.run()
        assert sim.meter.total_bytes == pytest.approx(16384)

    def test_no_owner_no_crash(self):
        sim = Simulator()
        drive = QueuedDrive(sim, WREN_IV)

        def proc():
            yield drive.submit(read(0, 1024))

        sim.process(proc())
        sim.run()
        assert drive.requests_served == 1


class TestElevator:
    def _submit_spread(self, sim, drive, cylinders):
        """Submit one 1K read per cylinder while the drive is busy."""
        geometry = drive.geometry
        order = []

        def proc(cyl):
            yield drive.submit(read(cyl * geometry.cylinder_bytes, 1024))
            order.append(cyl)

        # First request pins the head at cylinder 0 and occupies the drive
        # while the rest queue up.
        sim.process(proc(0))
        for cyl in cylinders:
            sim.process(proc(cyl))
        sim.run()
        return order

    def test_elevator_serves_by_sweep(self):
        sim = Simulator()
        drive = QueuedDrive(sim, WREN_IV, discipline="elevator")
        order = self._submit_spread(sim, drive, [900, 100, 500])
        # After the pinning request at 0, the sweep ascends: 100, 500, 900.
        assert order == [0, 100, 500, 900]

    def test_fcfs_serves_in_arrival_order(self):
        sim = Simulator()
        drive = QueuedDrive(sim, WREN_IV)  # default fcfs
        order = self._submit_spread(sim, drive, [900, 100, 500])
        assert order == [0, 900, 100, 500]

    def test_elevator_reduces_total_seek_time(self):
        def total_time(discipline):
            sim = Simulator()
            drive = QueuedDrive(sim, WREN_IV, discipline=discipline)

            def proc(cyl):
                yield drive.submit(read(cyl * WREN_IV.cylinder_bytes, 1024))

            for cyl in (0, 1400, 10, 1300, 20, 1200, 30):
                sim.process(proc(cyl))
            sim.run()
            return sim.now

        assert total_time("elevator") < total_time("fcfs")

    def test_unknown_discipline_raises(self):
        with pytest.raises(SimulationError):
            QueuedDrive(Simulator(), WREN_IV, discipline="sstf!")


def _run_random_requests(discipline, seed):
    """Submit a random request set; log every dispatch.

    Each log entry is ``(queue, head, chosen, direction)``: the requests
    waiting at the dispatch in submission order, the head's cylinder
    before the seek, the request the drive served, and the sweep
    direction the dispatch left behind.  Arrivals are quantized to
    5 ms and cylinders drawn from a small pool, so ties in arrival time
    and in distance are common.
    """
    rng = random.Random(seed)
    sim = Simulator()
    queued = QueuedDrive(sim, WREN_IV, discipline=discipline)
    disk = queued.drive
    service = disk.service
    waiting, log = [], []

    def spy(request, start_time):
        log.append((list(waiting), disk.head_cylinder, request, queued._direction))
        index = next(i for i, r in enumerate(waiting) if r is request)
        del waiting[index]
        return service(request, start_time)

    disk.service = spy
    cylinder_bytes = WREN_IV.cylinder_bytes
    pool = [rng.randrange(WREN_IV.cylinders) for _ in range(rng.randint(3, 12))]

    def client(delay, request):
        yield sim.timeout(delay)
        waiting.append(request)
        yield queued.submit(request)

    n_requests = rng.randint(1, 40)
    for _ in range(n_requests):
        start = rng.choice(pool) * cylinder_bytes + rng.randrange(4) * 1024
        request = read(start, rng.choice([1, 4, 8, 64]) * 1024)
        sim.process(client(5 * rng.randrange(40), request))
    sim.run()
    assert not waiting
    assert len(log) == n_requests == queued.requests_served
    return log


def _brute_force_choice(discipline, queue, head, direction):
    """The discipline's rule, written out: ``(index, direction)``.

    FCFS takes the head of the queue.  The elevator takes the nearest
    cylinder at or ahead of the head in the sweep direction, reverses
    when none is ahead, and breaks distance ties by submission order.
    A lone waiting request follows the same rule, so one behind the head
    turns the sweep.
    """
    if discipline == "fcfs":
        return 0, direction
    cylinders = [r.start_byte // WREN_IV.cylinder_bytes for r in queue]
    ahead = [i for i, c in enumerate(cylinders) if (c - head) * direction >= 0]
    if not ahead:
        direction = -direction
        ahead = range(len(queue))
    return min(ahead, key=lambda i: (abs(cylinders[i] - head), i)), direction


@pytest.mark.parametrize("discipline", ["fcfs", "elevator"])
@pytest.mark.parametrize("seed", range(25))
def test_every_dispatch_follows_the_discipline(discipline, seed):
    direction = 1
    for queue, head, chosen, swept in _run_random_requests(discipline, seed):
        index, direction = _brute_force_choice(discipline, queue, head, direction)
        assert queue[index] is chosen
        assert swept == direction


class TestRequestInvariants:
    """Malformed inputs fail loudly at the boundary, not deep in a
    simulation callback hours later."""

    def test_negative_start_rejected(self):
        with pytest.raises(InvalidRequestError):
            DiskRequest(IoKind.READ, -1, 1024)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(InvalidRequestError):
            DiskRequest(IoKind.READ, 0, 0)
        with pytest.raises(InvalidRequestError):
            DiskRequest(IoKind.READ, 0, -8192)

    def test_out_of_range_span_rejected_at_submit(self):
        sim = Simulator()
        drive = QueuedDrive(sim, WREN_IV)
        capacity = WREN_IV.capacity_bytes
        with pytest.raises(InvalidRequestError):
            drive.submit(read(capacity, 1024))
        with pytest.raises(InvalidRequestError):
            # Starts in range but runs off the end of the platters.
            drive.submit(read(capacity - 512, 1024))
        # The rejected requests left no trace: the drive still works.
        assert drive.queue_depth == 0
        drive.submit(read(capacity - 1024, 1024))
        sim.run()
        assert drive.requests_served == 1

    def test_last_byte_span_accepted(self):
        sim = Simulator()
        drive = QueuedDrive(sim, WREN_IV)
        waitable = drive.submit(read(WREN_IV.capacity_bytes - 8192, 8192))
        sim.run()
        assert waitable.done

    def test_duplicate_completion_rejected(self):
        sim = Simulator()
        waitable = Waitable()
        waitable.succeed(sim)
        with pytest.raises(SimulationError):
            waitable.succeed(sim)

    def test_waiting_on_completed_waitable_rejected(self):
        sim = Simulator()
        waitable = Waitable()
        waitable.succeed(sim)
        with pytest.raises(SimulationError):
            waitable.on_success(lambda _sim, _value: None)

    def test_service_scale_rejects_negative(self):
        breakdown = ServiceBreakdown(1.0, 2.0, 3.0)
        with pytest.raises(InvalidRequestError):
            breakdown.scaled(-1.0)

    def test_service_scale_identity_and_stretch(self):
        breakdown = ServiceBreakdown(1.0, 2.0, 3.0)
        assert breakdown.scaled(1.0) is breakdown
        doubled = breakdown.scaled(2.0)
        assert doubled.total_ms == pytest.approx(12.0)

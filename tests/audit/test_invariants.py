"""The runtime invariant auditor: clean runs pass, corruption is caught."""

import dataclasses
from types import SimpleNamespace

import pytest

from repro import (
    AuditConfig,
    ExperimentConfig,
    InvariantAuditor,
    RestrictedPolicy,
    Simulator,
    SystemConfig,
    parse_fault_spec,
)
from repro.audit.replay import performance_replay
from repro.disk.array import StripedArray
from repro.disk.geometry import TINY_DISK
from repro.disk.request import DiskRequest, IoKind
from repro.core.experiments import run_performance_experiment
from repro.errors import InvariantViolation, ReproError
from repro.units import KIB

from .perturb import perturbed

CAPS = dict(app_cap_ms=600.0, seq_cap_ms=600.0)


def small_config(**overrides):
    base = dict(
        policy=RestrictedPolicy(),
        workload="TS",
        system=SystemConfig(scale=0.01),
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestDisabledPath:
    def test_fresh_simulator_has_no_auditor(self):
        assert Simulator().auditor is None

    def test_unaudited_result_has_no_fingerprints(self):
        result = run_performance_experiment(small_config(), **CAPS)
        assert result.fingerprints is None

    def test_auditing_does_not_perturb_the_science(self):
        plain = run_performance_experiment(small_config(), **CAPS)
        audited = run_performance_experiment(
            small_config(),
            audit=AuditConfig(fingerprints=True, cadence_events=2_000),
            **CAPS,
        )
        assert audited.fingerprints
        assert dataclasses.replace(audited, fingerprints=None) == plain


class TestAuditConfig:
    def test_cadence_must_be_positive(self):
        with pytest.raises(ReproError, match="cadence"):
            AuditConfig(cadence_events=0)

    def test_defaults_check_invariants_without_fingerprints(self):
        config = AuditConfig()
        assert config.invariants and not config.fingerprints


class TestCleanRuns:
    def test_zero_violations_on_figure2_point(self):
        result = run_performance_experiment(
            small_config(),
            audit=AuditConfig(fingerprints=True, cadence_events=1_000),
            **CAPS,
        )
        assert result.fingerprints  # run completed, sweeps happened

    def test_zero_violations_on_faulted_raid5(self):
        config = small_config(
            system=SystemConfig(scale=0.01, organization="raid5"),
            faults=parse_fault_spec("fail:drive=0,at=200,repair=500"),
        )
        result = run_performance_experiment(
            config,
            audit=AuditConfig(fingerprints=True, cadence_events=1_000),
            **CAPS,
        )
        assert result.fingerprints
        assert result.faults is not None and result.faults.disk_failures == 1

    def test_zero_violations_on_mirrored(self):
        config = small_config(
            system=SystemConfig(scale=0.01, organization="mirrored"),
            faults=parse_fault_spec("fail:drive=1,at=200,repair=500"),
        )
        result = run_performance_experiment(
            config, audit=AuditConfig(cadence_events=1_000), **CAPS
        )
        assert result.faults is not None


    def test_zero_violations_on_elevator_queues(self):
        config = small_config(
            system=SystemConfig(scale=0.01, queue_discipline="elevator")
        )
        result = run_performance_experiment(
            config, audit=AuditConfig(cadence_events=1_000), **CAPS
        )
        assert result.application.bytes_moved > 0


class TestCorruptionDetection:
    """Seed a deliberate mid-run corruption; the next sweep must raise."""

    def corrupt(self, perturb, expected_subsystem):
        replay = perturbed(
            performance_replay(small_config(), **CAPS), 2_000, perturb
        )
        with pytest.raises(InvariantViolation) as info:
            replay(AuditConfig(cadence_events=500))
        violation = info.value
        assert violation.subsystem == expected_subsystem
        assert violation.time_ms >= 0
        assert violation.excerpt.get("event_index", 0) >= 2_000
        return violation

    def test_leaked_allocator_units(self):
        def leak(sim):
            sim.auditor.allocator._allocated_units += 7

        self.corrupt(leak, "alloc")

    def test_dropped_queue_entry(self):
        def tamper(sim):
            sim.auditor.array.drives[0].requests_enqueued += 1

        violation = self.corrupt(tamper, "disk")
        assert violation.check == "queue-accounting"

    def test_rng_draw_count_regression(self):
        def rewind(sim):
            busiest = max(
                (s for _, s in sim.auditor.ledger.items()),
                key=lambda s: s.draws,
            )
            busiest.draws -= 1

        violation = self.corrupt(rewind, "rng")
        assert violation.check == "draw-ledger"

    def test_truncated_live_file(self):
        def truncate(sim):
            for fs_file in sim.auditor.fs.live_files():
                if fs_file.handle.allocated_units > 0:
                    fs_file.handle.ends.clear()
                    return

        violation = self.corrupt(truncate, "fs")
        assert violation.check == "extmap-consistency"


class TestQueueOrder:
    """Both disciplines keep their queue in submission order."""

    def test_swapped_elevator_queue_raises(self):
        sim = Simulator()
        array = StripedArray(sim, TINY_DISK, 1, 24 * KIB, KIB, "elevator")
        drive = array.drives[0]
        auditor = InvariantAuditor(AuditConfig(cadence_events=10**9))
        auditor.attach(sim)
        auditor.observe(array=array)
        # One request enters service at t=0; two more queue behind it,
        # submitted at distinct times while the first is still in service.
        for at_ms, start_byte in ((0.0, 0), (0.01, 8 * KIB), (0.02, 4 * KIB)):
            sim.schedule(
                at_ms,
                lambda _sim, b=start_byte: drive.submit(
                    DiskRequest(IoKind.READ, b, KIB)
                ),
            )
        sim.run(until=0.03)
        assert drive.busy and drive.queue_depth == 2
        auditor.sweep(sim)  # as submitted: passes
        queue = drive._queue
        queue[0], queue[1] = queue[1], queue[0]
        with pytest.raises(InvariantViolation) as info:
            auditor.sweep(sim)
        assert info.value.subsystem == "disk"
        assert info.value.check == "queue-accounting"


class TestClockCheck:
    def test_backwards_clock_raises(self):
        auditor = InvariantAuditor(AuditConfig(cadence_events=10**9))
        auditor.after_event(SimpleNamespace(now=5.0))
        with pytest.raises(InvariantViolation, match="backwards"):
            auditor.after_event(SimpleNamespace(now=4.0))

    def test_stalled_clock_is_fine(self):
        auditor = InvariantAuditor(AuditConfig(cadence_events=10**9))
        auditor.after_event(SimpleNamespace(now=5.0))
        auditor.after_event(SimpleNamespace(now=5.0))
        assert auditor.event_index == 2

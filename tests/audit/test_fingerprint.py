"""Canonical fingerprints: deterministic across runs, workers, engines."""

import pytest

from repro import (
    AuditConfig,
    ExperimentConfig,
    ExperimentRunner,
    ExperimentTask,
    RestrictedPolicy,
    Simulator,
    SystemConfig,
)
from repro.audit.fingerprint import canonical_digest
from repro.audit.replay import performance_replay
from repro.core.experiments import run_performance_experiment

CAPS = dict(app_cap_ms=600.0, seq_cap_ms=600.0)
AUDIT = AuditConfig(fingerprints=True, cadence_events=1_000)


def small_config(seed=11):
    return ExperimentConfig(
        policy=RestrictedPolicy(),
        workload="TS",
        system=SystemConfig(scale=0.01),
        seed=seed,
    )


@pytest.fixture(scope="module")
def baseline():
    return run_performance_experiment(small_config(), audit=AUDIT, **CAPS)


class TestCanonicalDigest:
    def test_key_order_independent(self):
        assert canonical_digest({"a": 1, "b": [2, 3]}) == canonical_digest(
            {"b": [2, 3], "a": 1}
        )

    def test_value_sensitive(self):
        assert canonical_digest({"a": 1}) != canonical_digest({"a": 2})


class TestTimelineIdentity:
    def test_repeated_runs_are_byte_identical(self, baseline):
        again = run_performance_experiment(small_config(), audit=AUDIT, **CAPS)
        assert again.fingerprints == baseline.fingerprints

    def test_fast_and_reference_engines_agree(self, baseline):
        reference = run_performance_experiment(
            small_config(),
            audit=AUDIT,
            simulator_factory=lambda: Simulator(immediate_queue=False),
            **CAPS,
        )
        assert reference.fingerprints == baseline.fingerprints

    def test_one_worker_and_four_agree(self, baseline):
        tasks = [
            ExperimentTask.performance(small_config(), audit=AUDIT, **CAPS)
        ]
        for jobs in (1, 4):
            runner = ExperimentRunner(jobs=jobs)
            (outcome,) = runner.run(tasks)
            assert outcome.error is None
            assert outcome.result.fingerprints == baseline.fingerprints

    def test_different_seeds_diverge(self, baseline):
        other = run_performance_experiment(
            small_config(seed=12), audit=AUDIT, **CAPS
        )
        assert other.fingerprints != baseline.fingerprints

    def test_timeline_is_monotone_in_event_index(self, baseline):
        indices = [sample.index for sample in baseline.fingerprints]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)


class TestCaptureState:
    def test_payload_digest_matches_fingerprint(self):
        replay = performance_replay(small_config(), **CAPS)
        auditor = replay(
            AuditConfig(
                fingerprints=True, cadence_events=1_000, capture_state=True
            )
        )
        assert len(auditor.states) == len(auditor.fingerprints)
        for sample, state in zip(auditor.fingerprints, auditor.states):
            assert canonical_digest(state) == sample.digest
            assert set(state) == {
                "time_ms", "events_executed", "heap", "rng",
                "alloc", "extents", "queues",
            }

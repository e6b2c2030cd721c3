"""Golden-trace determinism: the observability layer's core guarantees.

A fixed ``(config, seed)`` must produce a *byte-identical* Chrome trace
(a) across repeated runs, (b) on both event-engine variants, and
(c) whether the experiment runs inline or across spawn workers.  And
collecting a trace must not perturb the science: results and engine
event counts are identical with tracing on, off, or absent.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.core.configs import (
    ORGANIZATIONS,
    ExperimentConfig,
    FixedPolicy,
    RestrictedPolicy,
    SystemConfig,
)
from repro.core.experiments import run_performance_experiment
from repro.core.runner import ExperimentRunner, ExperimentTask
from repro.fault.plan import parse_fault_spec
from repro.obs.export import trace_to_chrome, trace_to_jsonl
from repro.sim.engine import Simulator

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from check_trace import TraceError, validate_trace  # noqa: E402

#: Short but non-trivial: thousands of spans across every subsystem.
CAP_MS = 1_500.0


def config(seed: int = 3, organization: str = "striped") -> ExperimentConfig:
    return ExperimentConfig(
        policy=RestrictedPolicy(),
        workload="TS",
        system=SystemConfig(scale=0.02, organization=organization),
        seed=seed,
    )


def run(cfg: ExperimentConfig, **kwargs):
    return run_performance_experiment(
        cfg, app_cap_ms=CAP_MS, seq_cap_ms=CAP_MS, **kwargs
    )


class TestGoldenTrace:
    def test_same_seed_yields_byte_identical_chrome_trace(self):
        first = run(config(), collect_trace=True)
        second = run(config(), collect_trace=True)
        assert trace_to_chrome(first.trace) == trace_to_chrome(second.trace)
        assert trace_to_jsonl(first.trace) == trace_to_jsonl(second.trace)
        assert first.trace.span_count > 1_000

    def test_both_engine_variants_yield_the_same_trace(self):
        fast = run(config(), collect_trace=True)
        reference = run(
            config(),
            collect_trace=True,
            simulator_factory=lambda: Simulator(immediate_queue=False),
        )
        assert trace_to_chrome(fast.trace) == trace_to_chrome(reference.trace)

    def test_metrics_snapshot_is_deterministic(self):
        first = run(config(), collect_metrics=True)
        second = run(config(), collect_metrics=True)
        assert first.metrics == second.metrics
        assert first.metrics["counters"]["sim.events_executed"] > 0

    def test_trace_validates_structurally(self):
        result = run(config(), collect_trace=True)
        document = json.loads(trace_to_chrome(result.trace))
        counts = validate_trace(document)
        assert counts["spans"] == result.trace.span_count
        assert counts["lanes"] >= 3  # workload, fs, >= 1 drive

    def test_faulted_trace_carries_instants_and_validates(self):
        cfg = ExperimentConfig(
            policy=FixedPolicy(),
            workload="TS",
            system=SystemConfig(scale=0.02, organization="raid5"),
            seed=7,
            faults=parse_fault_spec("fail:drive=1,at=500,repair=400"),
        )
        result = run(cfg, collect_trace=True)
        assert result.trace.instants  # fault flips became instant events
        validate_trace(json.loads(trace_to_chrome(result.trace)))

    def test_validator_rejects_broken_nesting(self):
        result = run(config(), collect_trace=True)
        document = json.loads(trace_to_chrome(result.trace))
        parented = next(
            e
            for e in document["traceEvents"]
            if e["ph"] == "X" and e["args"].get("parent")
        )
        parented["ts"] = parented["ts"] + 1e9  # escape the parent interval
        with pytest.raises(TraceError):
            validate_trace(document)


class TestTracingDoesNotPerturb:
    @pytest.mark.parametrize("organization", ORGANIZATIONS)
    @pytest.mark.parametrize("immediate_queue", [True, False])
    def test_results_identical_with_and_without_tracing(
        self, immediate_queue, organization
    ):
        def factory():
            return Simulator(immediate_queue=immediate_queue)

        plain = run(config(organization=organization), simulator_factory=factory)
        traced = run(
            config(organization=organization),
            collect_trace=True,
            collect_metrics=True,
            simulator_factory=factory,
        )
        assert plain.application == traced.application
        assert plain.sequential == traced.sequential
        assert plain.final_utilization == traced.final_utilization
        assert plain.operation_latency_ms == traced.operation_latency_ms
        assert plain.trace is None and plain.metrics is None

    def test_event_count_identical_with_and_without_tracing(self):
        plain = run(config(), collect_metrics=True)
        traced = run(config(), collect_trace=True, collect_metrics=True)
        assert (
            plain.metrics["counters"]["sim.events_executed"]
            == traced.metrics["counters"]["sim.events_executed"]
        )


class TestWorkerCountInvariance:
    def test_jobs_1_and_jobs_4_yield_identical_traces(self):
        tasks = [
            ExperimentTask.performance(
                config(seed),
                app_cap_ms=CAP_MS,
                seq_cap_ms=CAP_MS,
                collect_trace=True,
            )
            for seed in (3, 4)
        ]
        serial = ExperimentRunner(jobs=1, cache_dir=None).results(tasks)
        parallel = ExperimentRunner(jobs=4, cache_dir=None).results(tasks)
        for left, right in zip(serial, parallel):
            assert trace_to_chrome(left.trace) == trace_to_chrome(right.trace)

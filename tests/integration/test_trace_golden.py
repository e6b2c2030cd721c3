"""Golden-trace determinism: the observability layer's core guarantees.

A fixed ``(config, seed)`` must produce a *byte-identical* Chrome trace
(a) across repeated runs, (b) on both event-engine variants, and
(c) whether the experiment runs inline or across spawn workers.  And
collecting a trace must not perturb the science: results and engine
event counts are identical with tracing on, off, or absent.
"""

import hashlib
import json
import sys
from collections import Counter
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
from check_trace import main as check_trace_main  # noqa: E402

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


#: A plan that, across the striped and RAID-5 points below, fires all
#: five fault kinds: failure, rebuild start, restore, slowdown start/end.
FAULTED_SPEC = (
    "fail:drive=1,at=500,repair=400;"
    "slow:drive=0,at=0,factor=2,for=800;"
    "transient:rate=0.01"
)

FAULT_KINDS = (
    "disk-failure",
    "rebuild-start",
    "drive-restored",
    "slowdown-start",
    "slowdown-end",
)

#: sha256 of the Chrome trace and of the sorted-JSON metrics snapshot
#: for TS / fixed / seed 7 / scale 0.02 under FAULTED_SPEC.
OBSERVATION_PINS = {
    "striped": (
        "ece3c8c7c3017b74838f662c9feb3e73a4018a7fe0f7d8471833f78d6017a952",
        "32648f598112a98a27f273c3b312bbaabbbf0c079285b2252995f0bab9ee78e0",
    ),
    "mirrored": (
        "d83f3e27919fe8da922d089cefdb83830b2476788be6e6399cf3c155979d31a8",
        "d57025d8e179aab6fdf76328b751da89ac85761b65a8edf32fa3dd54330721b0",
    ),
    "raid5": (
        "213877429ba914736708245ef5b9a247421b8ba88a8f0a7ee8a921b16307b44a",
        "cbc42fac0bcc9c2912db4b2a6d32a29dcfa1db36387c8ca63c0b95ed5305ff03",
    ),
}


def faulted_run(organization: str):
    cfg = ExperimentConfig(
        policy=FixedPolicy(),
        workload="TS",
        system=SystemConfig(scale=0.02, organization=organization),
        seed=7,
        faults=parse_fault_spec(FAULTED_SPEC),
    )
    return run(cfg, collect_trace=True, collect_metrics=True)


class TestObservationPins:
    """Fault instants, fault counters and seek histograms, byte for byte."""

    @pytest.mark.parametrize("organization", sorted(OBSERVATION_PINS))
    def test_faulted_trace_and_metrics_match_pins(self, organization):
        result = faulted_run(organization)
        trace_sha = hashlib.sha256(
            trace_to_chrome(result.trace).encode()
        ).hexdigest()
        metrics_sha = hashlib.sha256(
            json.dumps(result.metrics, sort_keys=True).encode()
        ).hexdigest()
        assert (trace_sha, metrics_sha) == OBSERVATION_PINS[organization]

    @pytest.mark.parametrize("organization", sorted(OBSERVATION_PINS))
    def test_every_served_request_records_one_seek(self, organization):
        result = faulted_run(organization)
        counters = result.metrics["counters"]
        histograms = result.metrics["histograms"]
        served = sum(
            count
            for name, count in counters.items()
            if name.startswith("disk.requests.d")
        )
        if organization == "striped":
            assert served == 2_967
        for name in ("disk.seek_distance_cyl", "disk.seek_ms_dist"):
            assert sum(histograms[name]["counts"]) == served

    def test_seek_histogram_sums_to_the_served_seek_total(self):
        # A drive slowed from the start: every one of its seeks is served
        # at twice its length, and both series must count it that way.
        cfg = ExperimentConfig(
            policy=FixedPolicy(),
            workload="TS",
            system=SystemConfig(scale=0.02),
            seed=7,
            faults=parse_fault_spec("slow:drive=0,at=0,factor=2"),
        )
        metrics = run(cfg, collect_metrics=True).metrics
        histogram = metrics["histograms"]["disk.seek_ms_dist"]
        total = metrics["totals"]["disk.seek_ms"]
        assert total > 0
        assert histogram["sum"] == pytest.approx(total, rel=1e-12)

    def test_checker_gates_on_instant_count(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(trace_to_chrome(faulted_run("mirrored").trace))
        assert check_trace_main([str(path), "--min-instants", "4"]) == 0
        assert check_trace_main([str(path), "--min-instants", "5"]) == 1
        assert "only 4 instant(s)" in capsys.readouterr().err

    def test_fault_counters_match_summary_and_instants(self):
        fired = set()
        for organization in sorted(OBSERVATION_PINS):
            result = faulted_run(organization)
            counters = result.metrics["counters"]
            flips = {
                name[len("fault."):]: count
                for name, count in counters.items()
                if name[len("fault."):] in FAULT_KINDS
            }
            instants = Counter(
                name for name, cat, *_ in result.trace.instants
                if cat == "fault"
            )
            assert flips == dict(instants)
            assert flips["disk-failure"] == result.faults.disk_failures
            fired.update(flips)
        assert fired == set(FAULT_KINDS)


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

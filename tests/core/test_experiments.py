"""Integration-grade unit tests for the §3 experiment drivers (small scale)."""

import pytest

from repro.core.configs import (
    BuddyPolicy,
    ExperimentConfig,
    ExtentPolicy,
    FixedPolicy,
    RestrictedPolicy,
    SystemConfig,
)
from repro.core.experiments import (
    allocation_fill_for,
    build_profile,
    run_allocation_experiment,
    run_performance_experiment,
)
from repro.errors import ConfigurationError

SMALL = SystemConfig(scale=0.04)


class TestBuildProfile:
    def test_dispatch(self):
        assert build_profile("TS", SMALL, 0.9).name == "TS"
        assert build_profile("tp", SMALL, 0.9).name == "TP"
        assert build_profile("Sc", SMALL, 0.9).name == "SC"

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            build_profile("XX", SMALL, 0.9)

    def test_tp_sizes_scale_with_system(self):
        profile = build_profile("TP", SMALL, 0.9)
        (relation,) = [t for t in profile.types if t.name == "tp-relation"]
        assert relation.initial_size_bytes == pytest.approx(
            210 * 1024 * 1024 * 0.04, rel=0.01
        )

    def test_allocation_fill_defaults(self):
        assert allocation_fill_for("TS") == 0.90
        assert allocation_fill_for("TP") == 0.75
        assert allocation_fill_for("unknown") == 0.85


class TestAllocationExperiment:
    @pytest.mark.parametrize("workload", ["SC", "TP"])
    def test_extent_policy_fills(self, workload):
        config = ExperimentConfig(
            policy=ExtentPolicy(), workload=workload, system=SMALL, seed=3
        )
        result = run_allocation_experiment(config)
        assert result.filled
        frag = result.fragmentation
        assert 0.0 <= frag.internal_fraction < 0.5
        assert 0.0 <= frag.external_fraction < 0.5

    def test_buddy_fragments_worse_than_extent(self):
        """Table 3's headline: buddy internal fragmentation is severe."""
        buddy = run_allocation_experiment(
            ExperimentConfig(policy=BuddyPolicy(), workload="SC", system=SMALL)
        )
        extent = run_allocation_experiment(
            ExperimentConfig(policy=ExtentPolicy(), workload="SC", system=SMALL)
        )
        assert (
            buddy.fragmentation.internal_fraction
            > 2 * extent.fragmentation.internal_fraction
        )

    def test_deterministic(self):
        config = ExperimentConfig(
            policy=RestrictedPolicy(block_sizes=("1K", "8K", "64K")),
            workload="SC",
            system=SMALL,
            seed=11,
        )
        a = run_allocation_experiment(config)
        b = run_allocation_experiment(config)
        assert a.fragmentation == b.fragmentation
        assert a.operations == b.operations


class TestPerformanceExperiment:
    def test_sc_restricted_sequential_dominates_application(self):
        config = ExperimentConfig(
            policy=RestrictedPolicy(), workload="SC", system=SMALL, seed=5
        )
        result = run_performance_experiment(
            config, app_cap_ms=60_000, seq_cap_ms=60_000
        )
        assert 0.0 < result.application.utilization <= 1.0
        assert 0.0 < result.sequential.utilization <= 1.0
        assert result.sequential.utilization > result.application.utilization
        # The governor held utilization in (or near) the window.
        assert result.final_utilization > 0.85

    def test_fixed_block_sequential_is_poor(self):
        """Figure 6a: fixed block cannot exploit the array sequentially."""
        fixed = run_performance_experiment(
            ExperimentConfig(
                policy=FixedPolicy("16K"), workload="SC", system=SMALL, seed=5
            ),
            app_cap_ms=40_000,
            seq_cap_ms=40_000,
        )
        restricted = run_performance_experiment(
            ExperimentConfig(
                policy=RestrictedPolicy(), workload="SC", system=SMALL, seed=5
            ),
            app_cap_ms=40_000,
            seq_cap_ms=40_000,
        )
        # At this tiny scale the fixed-block system is only lightly aged,
        # so the gap is narrower than the paper's full-scale run; direction
        # and a real margin must still hold.
        assert (
            restricted.sequential.utilization
            > 1.05 * fixed.sequential.utilization
        )

    def test_phase_flags_and_counts(self):
        config = ExperimentConfig(
            policy=ExtentPolicy(), workload="TP", system=SMALL, seed=6
        )
        result = run_performance_experiment(
            config, app_cap_ms=50_000, seq_cap_ms=30_000
        )
        assert result.policy_label == config.policy.label
        assert result.workload == "TP"
        assert sum(result.operation_counts.values()) > 50
        assert result.application.simulated_ms <= 50_000 + 10_000
        assert result.application.bytes_moved > 0

    def test_phases_can_be_skipped(self):
        config = ExperimentConfig(
            policy=ExtentPolicy(), workload="SC", system=SMALL, seed=7
        )
        result = run_performance_experiment(
            config, run_application=False, seq_cap_ms=30_000
        )
        assert result.application.utilization == 0.0
        assert result.sequential.utilization > 0.0

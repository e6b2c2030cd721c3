"""Tests for the JSON wire codec: strict validation + key-preserving
round trips (what makes ledger specs a faithful recovery record)."""

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.audit import AuditConfig
from repro.core.configs import (
    BuddyPolicy,
    ExperimentConfig,
    ExtentPolicy,
    FixedPolicy,
    LogStructuredPolicy,
    RestrictedPolicy,
    SystemConfig,
    selected_extent,
    selected_fixed,
)
from repro.core.runner import ExperimentTask
from repro.errors import ConfigurationError
from repro.fault.plan import parse_fault_spec
from repro.serve import spec_to_task, task_to_spec


def roundtrip(task: ExperimentTask) -> ExperimentTask:
    return spec_to_task(task_to_spec(task))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "policy",
        [
            BuddyPolicy(),
            RestrictedPolicy(grow_factor=2, clustered=False),
            ExtentPolicy(range_means=(4096, 65536), fit="best"),
            FixedPolicy(block_size="16K", aged=True),
            FixedPolicy(block_size="4K", aged=False),
            LogStructuredPolicy(),
        ],
    )
    def test_every_policy_roundtrips_with_same_cache_key(self, policy):
        config = ExperimentConfig(
            policy=policy, workload="TP", system=SystemConfig(scale=0.05), seed=3
        )
        task = ExperimentTask.performance(config, app_cap_ms=9_000.0)
        assert roundtrip(task).cache_key == task.cache_key

    def test_allocation_task_roundtrips(self):
        config = ExperimentConfig(
            policy=RestrictedPolicy(),
            workload="SC",
            system=SystemConfig(scale=0.1),
            seed=11,
            fill_fraction=0.5,
        )
        task = ExperimentTask.allocation(config, max_operations=500)
        assert roundtrip(task).cache_key == task.cache_key

    def test_faults_roundtrip_including_high_precision_times(self):
        faults = parse_fault_spec(
            "fail:drive=2,at=5000.125,repair=40000.0625;"
            "slow:drive=0,at=123.456789012345,factor=4.5,for=1000;"
            "transient:rate=0.0012345678901234567,drive=1,from=10,until=99999"
        )
        config = ExperimentConfig(
            policy=FixedPolicy(),
            workload="TS",
            system=SystemConfig(scale=0.05, organization="raid5"),
            seed=5,
            faults=faults,
        )
        task = ExperimentTask.performance(config)
        again = roundtrip(task)
        assert again.cache_key == task.cache_key
        assert again.config.faults == faults

    def test_audit_config_roundtrips(self):
        config = ExperimentConfig(
            policy=FixedPolicy(), workload="TS",
            system=SystemConfig(scale=0.05), seed=5,
        )
        task = ExperimentTask.performance(
            config, audit=AuditConfig(fingerprints=True)
        )
        again = roundtrip(task)
        assert again.cache_key == task.cache_key
        assert dict(again.kwargs)["audit"].fingerprints is True

    def test_system_organization_and_striping_roundtrip(self):
        config = ExperimentConfig(
            policy=FixedPolicy(),
            workload="TS",
            system=SystemConfig(
                scale=0.05, n_disks=4, organization="mirrored",
                queue_discipline="fcfs",
            ),
            seed=2,
        )
        task = ExperimentTask.performance(config)
        assert roundtrip(task).cache_key == task.cache_key


class TestValidation:
    def base_spec(self) -> dict:
        return {
            "kind": "performance",
            "workload": "TS",
            "seed": 7,
            "policy": {"name": "fixed", "block_size": "4K"},
            "system": {"scale": 0.02},
        }

    def test_minimal_spec_gets_defaults(self):
        task = spec_to_task({"workload": "SC"})
        assert task.kind == "performance"
        assert task.config.seed == 1991
        assert isinstance(task.config.policy, RestrictedPolicy)

    def test_bare_fixed_and_extent_take_the_workload_defaults(self):
        def policy(name, workload):
            spec = {"workload": workload, "policy": {"name": name}}
            return spec_to_task(spec).config.policy

        assert policy("fixed", "TS") == selected_fixed("TS")
        assert policy("fixed", "TP").block_size == "16K"
        assert policy("extent", "TS") == selected_extent("TS")
        assert policy("extent", "SC") == selected_extent("SC")
        explicit = {"name": "extent", "fit": "best", "range_means": ["4K"]}
        task = spec_to_task({"workload": "TS", "policy": explicit})
        assert task.config.policy == ExtentPolicy(range_means=("4K",), fit="best")

    def test_retired_ffs_policy_is_rejected_by_name(self):
        spec = {"workload": "TS", "policy": {"name": "ffs", "block_size": "8K"}}
        with pytest.raises(ConfigurationError) as excinfo:
            spec_to_task(spec)
        assert str(excinfo.value) == (
            "policy.name: expected one of buddy, extent, fixed, lfs, "
            "restricted, got 'ffs'"
        )

    @pytest.mark.parametrize(
        "mutation, fragment",
        [
            ({"typo_field": 1}, "unknown field"),
            ({"kind": "nonsense"}, "kind"),
            ({"workload": "XX"}, "workload"),
            ({"seed": "seven"}, "seed"),
            ({"seed": True}, "seed"),
            ({"policy": {"name": "zfs"}}, "policy.name"),
            ({"policy": {"name": "fixed", "blok_size": "4K"}}, "unknown"),
            ({"system": {"scael": 0.1}}, "unknown"),
            ({"faults": 42}, "faults"),
            ({"kwargs": {"nope": 1}}, "unknown"),
            ({"audit": {"nope": True}}, "unknown"),
            ({"system": {"scale": "0.1"}}, "system.scale: expected a number"),
            ({"system": {"n_disks": True}}, "system.n_disks"),
            ({"system": {"organization": ["raid5"]}}, "system.organization"),
            ({"fill_fraction": 0}, "fill_fraction"),
            ({"fill_fraction": 1.5}, "fill_fraction"),
            ({"fill_fraction": "0.5"}, "fill_fraction"),
            ({"kwargs": {"app_cap_ms": "fast"}}, "kwargs.app_cap_ms"),
            ({"kwargs": {"app_cap_ms": float("nan")}}, "kwargs.app_cap_ms"),
            ({"kwargs": {"seq_cap_ms": float("inf")}}, "kwargs.seq_cap_ms"),
            ({"kwargs": {"app_cap_ms": 0}}, "kwargs.app_cap_ms"),
            ({"kwargs": {"seq_cap_ms": -5.0}}, "kwargs.seq_cap_ms"),
            ({"kwargs": {"warmup_ms": -1.0}}, "kwargs.warmup_ms"),
            ({"kwargs": {"collect_trace": 1}}, "kwargs.collect_trace"),
            ({"kwargs": {"collect_metrics": "yes"}}, "kwargs.collect_metrics"),
            (
                {"kind": "allocation", "kwargs": {"max_operations": 0}},
                "kwargs.max_operations",
            ),
            (
                {"kind": "allocation", "kwargs": {"max_operations": 2.5}},
                "kwargs.max_operations",
            ),
            (
                {"kind": "allocation", "kwargs": {"max_operations": True}},
                "kwargs.max_operations",
            ),
            (
                {"kind": "allocation", "kwargs": {"fill_fraction": 2}},
                "kwargs.fill_fraction",
            ),
            ({"policy": {"name": "restricted", "grow_factor": 0}}, "grow factor"),
            ({"policy": {"name": "restricted", "grow_factor": "2"}}, "grow factor"),
            ({"policy": {"name": "extent", "range_means": []}}, "range_means"),
            ({"policy": {"name": "extent", "fit": "worst"}}, "fit"),
            ({"policy": {"name": "fixed", "block_size": "0K"}}, "block_size"),
            ({"policy": {"name": "fixed", "aged": "yes"}}, "aged"),
            ({"policy": {"name": ["fixed"]}}, "policy.name"),
            ({"kind": ["performance"]}, "kind"),
            ({"faults": "boom:drive=1"}, "faults: unknown fault kind"),
            ({"faults": "fail:drive=nan,at=0"}, "faults: bad number"),
            ({"audit": {"cadence_events": 0}}, "audit.cadence_events"),
            ({"audit": {"fingerprints": "yes"}}, "audit.fingerprints"),
        ],
    )
    def test_malformed_specs_are_rejected_with_context(self, mutation, fragment):
        spec = self.base_spec()
        spec.update(mutation)
        with pytest.raises(ConfigurationError, match=fragment):
            spec_to_task(spec)

    def test_parity_striped_rejects_drive_failures_only(self):
        spec = self.base_spec()
        spec["system"]["organization"] = "parity-striped"
        spec["faults"] = "fail:drive=0,at=500"
        with pytest.raises(
            ConfigurationError,
            match="parity-striped organization does not model whole-drive "
            "failures",
        ):
            spec_to_task(spec)
        spec["faults"] = "slow:drive=0,at=0,factor=2;transient:rate=0.01"
        assert spec_to_task(spec).config.faults.failures == ()

    def test_non_object_spec_is_rejected(self):
        with pytest.raises(ConfigurationError, match="expected an object"):
            spec_to_task([1, 2, 3])

    def test_allocation_rejects_performance_kwargs(self):
        spec = self.base_spec()
        spec["kind"] = "allocation"
        spec["kwargs"] = {"app_cap_ms": 100.0}
        with pytest.raises(ConfigurationError, match="unknown"):
            spec_to_task(spec)


#: Valid specs touching every wire field, one per policy family.
FUZZ_BASES = [
    {
        "kind": "performance",
        "workload": "TP",
        "seed": 7,
        "policy": {
            "name": "restricted", "block_sizes": ["1K", "8K"],
            "grow_factor": 2, "clustered": False, "region_size": "32M",
        },
        "system": {
            "scale": 0.05, "n_disks": 4, "stripe_unit": "24K",
            "disk_unit": "1K", "queue_discipline": "fcfs",
            "organization": "raid5",
        },
        "fill_fraction": 0.8,
        "faults": "fail:drive=0,at=100;transient:rate=0.001",
        "audit": {"fingerprints": True, "cadence_events": 100},
        "kwargs": {
            "app_cap_ms": 1000.0, "seq_cap_ms": 1000.0, "warmup_ms": 0.0,
            "collect_trace": False, "collect_metrics": True,
        },
    },
    {
        "kind": "allocation",
        "workload": "TS",
        "policy": {"name": "extent", "range_means": ["1K", "8K"], "fit": "best"},
        "kwargs": {"fill_fraction": 0.5, "max_operations": 100},
    },
    {"workload": "SC", "policy": {"name": "fixed", "block_size": "16K", "aged": True}},
]

FUZZ_PATHS = sorted(
    {(key,) for base in FUZZ_BASES for key in base}
    | {
        (key, sub)
        for base in FUZZ_BASES
        for key, value in base.items()
        if isinstance(value, dict)
        for sub in value
    }
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN and the infinities included
    | st.text(max_size=12)
    | st.sampled_from(["TS", "fixed", "extent", "4K", "0K", "first", "raid5"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    base=st.sampled_from(FUZZ_BASES),
    edits=st.lists(
        st.tuples(st.sampled_from(FUZZ_PATHS), json_values),
        min_size=1, max_size=3,
    ),
)
def test_decoder_returns_a_task_or_a_configuration_error(base, edits):
    spec = copy.deepcopy(base)
    for path, value in edits:
        target = spec
        for key in path[:-1]:
            target = target.setdefault(key, {})
        if isinstance(target, dict):
            target[path[-1]] = value
    try:
        task = spec_to_task(spec)
    except ConfigurationError:
        return
    assert spec_to_task(task_to_spec(task)).cache_key == task.cache_key

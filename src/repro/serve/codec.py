"""JSON wire format for experiment requests.

The service accepts *task specs* — plain JSON dicts naming everything an
:class:`~repro.core.runner.ExperimentTask` needs — and turns them back
into executable tasks.  The codec is deliberately narrower than the
Python API: only the fields a remote client may vary are accepted, every
unknown key is an error (a typo must not silently fall back to a
default and simulate the wrong experiment), and the round trip is
stable: ``spec_to_task(task_to_spec(t))`` rebuilds a task with the same
``cache_key``, which is what makes the ledger's recorded specs a
faithful crash-recovery record.

The codec is also the one validator of user input: the CLI builds its
specs from flags and decodes them here too, so both front ends share one
set of defaults and one set of error messages.  Every value is
type-checked before it reaches a config, and a bare ``fixed`` or
``extent`` policy takes the §5 per-workload settings (4K blocks for TS,
16K for TP/SC; §4.3's 3-range extent table), as the CLI always has.

A spec looks like::

    {
      "kind": "performance",                 # or "allocation"
      "workload": "TS",                      # TS | TP | SC
      "seed": 7,
      "policy": {"name": "fixed", "block_size": "4K"},
      "system": {"scale": 0.02, "organization": "striped"},
      "faults": "fail:drive=0,at=5000",      # optional --inject grammar
      "audit": {"fingerprints": true},       # optional AuditConfig fields
      "kwargs": {"app_cap_ms": 8000.0}       # experiment keyword args
    }
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable

from ..audit.invariants import AuditConfig
from ..core.configs import (
    BuddyPolicy,
    ExperimentConfig,
    ExtentPolicy,
    FixedPolicy,
    LogStructuredPolicy,
    PolicyConfig,
    RestrictedPolicy,
    SystemConfig,
    selected_extent,
    selected_fixed,
)
from ..core.runner import ExperimentTask
from ..disk.geometry import WREN_IV
from ..errors import ConfigurationError, FaultError
from ..fault.plan import ALL_DRIVES, FaultSpec, parse_fault_spec

#: Wire names for the policy configurations a spec may request.
POLICY_CODECS: dict[str, type[PolicyConfig]] = {
    "buddy": BuddyPolicy,
    "restricted": RestrictedPolicy,
    "extent": ExtentPolicy,
    "fixed": FixedPolicy,
    "lfs": LogStructuredPolicy,
}

#: The paper's three workloads.
WORKLOADS = ("TS", "TP", "SC")

#: What a checked value must be: its description for the error message
#: and the test it must pass.
Rule = tuple[str, Callable[[Any], bool]]


def _is_number(value: Any) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def _is_integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_NUMBER: Rule = ("a number", _is_number)
_INTEGER: Rule = ("an integer", _is_integer)
_BOOLEAN: Rule = ("a boolean", lambda v: isinstance(v, bool))
_STRING: Rule = ("a string", lambda v: isinstance(v, str))
_POSITIVE: Rule = ("a positive number", lambda v: _is_number(v) and v > 0)
_COUNT: Rule = ("a positive integer", lambda v: _is_integer(v) and v > 0)
_FRACTION: Rule = ("a number in (0, 1]", lambda v: _is_number(v) and 0 < v <= 1)
_OBJECT: Rule = ("an object", lambda v: isinstance(v, dict))
_KIND: Rule = (
    "'performance' or 'allocation'",
    lambda v: v in ("performance", "allocation"),
)
_WORKLOAD: Rule = ("TS, TP, or SC", lambda v: isinstance(v, str) and v in WORKLOADS)
_POLICY: Rule = (
    f"one of {', '.join(sorted(POLICY_CODECS))}",
    lambda v: isinstance(v, str) and v in POLICY_CODECS,
)

#: SystemConfig fields a remote client may set.  ``geometry`` is
#: deliberately absent: the wire format pins the paper's Wren IV.
_SYSTEM_FIELDS: dict[str, Rule] = {
    "n_disks": _INTEGER,
    "stripe_unit": ("a size", lambda v: isinstance(v, str) or _is_integer(v)),
    "disk_unit": ("a size", lambda v: isinstance(v, str) or _is_integer(v)),
    "scale": _NUMBER,
    "queue_discipline": _STRING,
    "organization": _STRING,
}

#: Experiment kwargs a spec may pass (all JSON scalars).  ``audit`` is
#: its own top-level spec field because it builds an AuditConfig.
_KWARG_FIELDS: dict[str, dict[str, Rule]] = {
    "performance": {
        "app_cap_ms": _POSITIVE,
        "seq_cap_ms": _POSITIVE,
        "warmup_ms": ("a number >= 0", lambda v: _is_number(v) and v >= 0),
        "collect_trace": _BOOLEAN,
        "collect_metrics": _BOOLEAN,
    },
    "allocation": {"fill_fraction": _FRACTION, "max_operations": _COUNT},
}

_AUDIT_FIELDS: dict[str, Rule] = {
    "invariants": _BOOLEAN,
    "fingerprints": _BOOLEAN,
    "cadence_events": _COUNT,
    "capture_state": _BOOLEAN,
    "start_event": _INTEGER,
    "end_event": ("an integer or null", lambda v: v is None or _is_integer(v)),
}


def _checked(value: Any, rule: Rule, where: str) -> Any:
    what, accepts = rule
    if not accepts(value):
        raise ConfigurationError(f"{where}: expected {what}, got {value!r}")
    return value


def _reject_unknown(body: dict, allowed: Any, where: str) -> None:
    unknown = sorted(set(body) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"{where}: unknown field(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(allowed)}"
        )


def _checked_fields(body: dict, rules: dict[str, Rule], where: str) -> dict:
    """``body`` once every key is known to ``rules`` and every value passes."""
    _reject_unknown(body, rules, where)
    for key in sorted(body):
        _checked(body[key], rules[key], f"{where}.{key}")
    return body


def _decode_policy(body: Any, workload: str) -> PolicyConfig:
    body = dict(_checked(body, _OBJECT, "policy"))
    name = _checked(body.pop("name", None), _POLICY, "policy.name")
    # §5's per-workload settings, for specs that leave them out.
    if name == "fixed":
        body.setdefault("block_size", selected_fixed(workload).block_size)
    elif name == "extent":
        body.setdefault("range_means", selected_extent(workload).range_means)
    cls = POLICY_CODECS[name]
    field_names = tuple(f.name for f in dataclasses.fields(cls))
    _reject_unknown(body, field_names, f"policy[{name}]")
    kwargs: dict[str, Any] = {}
    for key, value in body.items():
        # Tuple-typed fields (block size ladders, extent ranges) arrive
        # as JSON arrays.
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    return cls(**kwargs)  # each policy validates its own fields


def _encode_policy(policy: PolicyConfig) -> dict:
    for name, cls in POLICY_CODECS.items():
        if type(policy) is cls:
            body: dict[str, Any] = {"name": name}
            for f in dataclasses.fields(cls):
                value = getattr(policy, f.name)
                body[f.name] = list(value) if isinstance(value, tuple) else value
            return body
    raise ConfigurationError(
        f"policy {type(policy).__name__} has no wire encoding"
    )


def _decode_system(body: Any) -> SystemConfig:
    body = _checked(body, _OBJECT, "system")
    return SystemConfig(**_checked_fields(body, _SYSTEM_FIELDS, "system"))


def _encode_system(system: SystemConfig) -> dict:
    if system.geometry is not WREN_IV and system.geometry != WREN_IV:
        raise ConfigurationError(
            "system.geometry: custom geometries have no wire encoding"
        )
    return {name: getattr(system, name) for name in _SYSTEM_FIELDS}


def _encode_faults(spec: FaultSpec) -> str:
    """Render a FaultSpec back into the ``--inject`` grammar."""
    if spec.seed_salt or spec.rebuild_rows_per_chunk != 8:
        raise ConfigurationError(
            "faults: seed_salt / rebuild tuning have no wire encoding"
        )
    clauses = []
    # repr() for floats: the grammar re-parses with float(), and %g would
    # truncate past six significant digits.
    for f in spec.failures:
        clause = f"fail:drive={f.drive},at={f.at_ms!r}"
        if f.repair_after_ms is not None:
            clause += f",repair={f.repair_after_ms!r}"
        clauses.append(clause)
    for s in spec.slowdowns:
        clause = f"slow:drive={s.drive},at={s.at_ms!r},factor={s.factor!r}"
        if not math.isinf(s.duration_ms):
            clause += f",for={s.duration_ms!r}"
        clauses.append(clause)
    for t in spec.transients:
        clause = f"transient:rate={t.rate!r}"
        if t.drive != ALL_DRIVES:
            clause += f",drive={t.drive}"
        if t.start_ms:
            clause += f",from={t.start_ms!r}"
        if not math.isinf(t.end_ms):
            clause += f",until={t.end_ms!r}"
        clauses.append(clause)
    return ";".join(clauses)


_SPEC_FIELDS = (
    "kind",
    "workload",
    "seed",
    "policy",
    "system",
    "fill_fraction",
    "faults",
    "audit",
    "kwargs",
)


def spec_to_task(spec: Any) -> ExperimentTask:
    """Build the executable task a JSON spec describes.

    Raises :class:`~repro.errors.ConfigurationError` on any unknown
    field, bad type, or value the underlying configs reject — the
    HTTP layer maps those to 400 responses.
    """
    spec = _checked(spec, _OBJECT, "task spec")
    _reject_unknown(spec, _SPEC_FIELDS, "task spec")
    kind = _checked(spec.get("kind", "performance"), _KIND, "kind")
    workload = _checked(spec.get("workload"), _WORKLOAD, "workload")
    seed = _checked(spec.get("seed", 1991), _INTEGER, "seed")

    policy = _decode_policy(spec.get("policy", {"name": "restricted"}), workload)
    system = _decode_system(spec.get("system", {}))

    faults = spec.get("faults")
    if faults is not None:
        _checked(faults, _STRING, "faults")
        try:
            faults = parse_fault_spec(faults)
        except FaultError as error:
            raise ConfigurationError(f"faults: {error}") from None
        # An empty plan is the fault-free model; one spelling keeps the
        # round trip key-stable.
        faults = None if faults.empty else faults

    config_kwargs: dict[str, Any] = dict(
        policy=policy, workload=workload, system=system, seed=seed, faults=faults
    )
    if "fill_fraction" in spec:
        config_kwargs["fill_fraction"] = spec["fill_fraction"]
    config = ExperimentConfig(**config_kwargs)

    kwargs = dict(_checked(spec.get("kwargs", {}), _OBJECT, "kwargs"))
    _checked_fields(kwargs, _KWARG_FIELDS[kind], "kwargs")
    if spec.get("audit") is not None:
        audit = _checked(spec["audit"], _OBJECT, "audit")
        kwargs["audit"] = AuditConfig(**_checked_fields(audit, _AUDIT_FIELDS, "audit"))

    if kind == "performance":
        return ExperimentTask.performance(config, **kwargs)
    return ExperimentTask.allocation(config, **kwargs)


def task_to_spec(task: ExperimentTask) -> dict:
    """The JSON spec describing ``task`` (inverse of :func:`spec_to_task`).

    The round trip preserves the task's ``cache_key``; tasks using
    features outside the wire format (custom geometries, fault seed
    salts) raise :class:`~repro.errors.ConfigurationError`.
    """
    config = task.config
    spec: dict[str, Any] = {
        "kind": task.kind,
        "workload": config.workload,
        "seed": config.seed,
        "policy": _encode_policy(config.policy),
        "system": _encode_system(config.system),
    }
    if config.fill_fraction != 0.91:
        spec["fill_fraction"] = config.fill_fraction
    if config.faults is not None:
        spec["faults"] = _encode_faults(config.faults)
    kwargs = dict(task.kwargs)
    audit = kwargs.pop("audit", None)
    if audit is not None:
        spec["audit"] = {
            f.name: getattr(audit, f.name)
            for f in dataclasses.fields(AuditConfig)
        }
    if kwargs:
        spec["kwargs"] = kwargs
    return spec

"""Differential test: joins that count down in place resume processes
exactly when the closure-per-child joins did.

A join used to cost one queued event per child and one more per level of
nesting; :func:`repro.sim.engine.join` costs none.  Removing the same
number of immediate hops from every resumption keeps the FIFO order of
the immediate queue, so the sequence of ``(sim.now, process name)``
resumptions — and every number the run reports — must be unchanged.
:func:`tests.oracles.join.closure_join` is swapped into the file-system
and disk join sites to replay the old event stream next to the new one.

The mirrored organization is the one place the hop counts were not
uniform: a write went through two array-level joins (one per copy, then
the pair) where a read went through one, so a read and a write finishing
at the same instant used to resume read first.  Now they resume in the
order their drives completed.  Only such same-instant pairs can move, and
a read and a write record into different tallies, so results stay
identical; the mirrored point checks exactly that.
"""

from contextlib import contextmanager
from itertools import groupby

import pytest

import repro.disk.array
import repro.disk.raid
import repro.fs.filesystem
from repro import AuditConfig
from repro.core.configs import (
    ExperimentConfig,
    ExtentPolicy,
    FixedPolicy,
    RestrictedPolicy,
    SystemConfig,
)
from repro.core.experiments import run_performance_experiment
from repro.serve.service import result_digest
from repro.sim.engine import Process
from tests.oracles.join import closure_join

CAP_MS = 1_500.0

#: Every module that joins waitables, each importing ``join`` by name.
JOIN_SITES = (repro.disk.array, repro.disk.raid, repro.fs.filesystem)


@contextmanager
def recorded_resumptions(monkeypatch, old_join: bool):
    """Log ``(sim.now, process name)`` at every process step."""
    log = []
    step = Process._step

    def logged_step(self, sim, value):
        log.append((sim.now, self.name))
        return step(self, sim, value)

    with monkeypatch.context() as patch:
        patch.setattr(Process, "_step", logged_step)
        if old_join:
            for module in JOIN_SITES:
                patch.setattr(module, "join", closure_join)
        yield log


def run_both(monkeypatch, cfg: ExperimentConfig):
    """(resumptions, result digest) under the closure join, then under join."""
    runs = []
    for old_join in (True, False):
        with recorded_resumptions(monkeypatch, old_join) as log:
            result = run_performance_experiment(
                cfg, app_cap_ms=CAP_MS, seq_cap_ms=CAP_MS
            )
        runs.append((log, result_digest(result)))
    return runs


def point(workload, policy, organization="striped"):
    return ExperimentConfig(
        policy=policy,
        workload=workload,
        system=SystemConfig(scale=0.02, organization=organization),
        seed=7,
    )


@pytest.mark.parametrize(
    "cfg",
    [
        point("TS", RestrictedPolicy()),
        point("TP", FixedPolicy()),
        point("SC", ExtentPolicy()),
        point("TS", RestrictedPolicy(), "raid5"),
    ],
    ids=["TS-striped", "TP-striped", "SC-striped", "TS-raid5"],
)
def test_resumptions_and_results_identical(monkeypatch, cfg):
    (old_log, old_digest), (new_log, new_digest) = run_both(monkeypatch, cfg)
    assert len(new_log) > 1_000
    assert new_log == old_log
    assert new_digest == old_digest


def test_mirrored_moves_only_same_instant_ties(monkeypatch):
    cfg = point("TS", RestrictedPolicy(), "mirrored")
    (old_log, old_digest), (new_log, new_digest) = run_both(monkeypatch, cfg)

    def instants(log):
        return [
            (now, sorted(name for _, name in group))
            for now, group in groupby(log, key=lambda entry: entry[0])
        ]

    assert len(new_log) > 1_000
    assert instants(new_log) == instants(old_log)
    assert new_digest == old_digest


def test_oracle_replays_the_old_event_stream(monkeypatch):
    """The closure join reproduces the pre-change event count exactly.

    13,397 events is what this churn run (the one pinned in
    ``tests/workload/test_driver.py``) executed when every join site
    built a closure-per-child ``AllOf``; in-place joins take 8,473.
    """
    cfg = ExperimentConfig(
        policy=RestrictedPolicy(),
        workload="TS",
        system=SystemConfig(scale=0.01),
        seed=11,
    )
    counts = []
    for old_join in (True, False):
        with recorded_resumptions(monkeypatch, old_join):
            result = run_performance_experiment(
                cfg,
                audit=AuditConfig(fingerprints=True, cadence_events=1_000),
                app_cap_ms=600.0,
                seq_cap_ms=600.0,
            )
        counts.append(result.fingerprints[-1].index)
    assert counts == [13_397, 8_473]

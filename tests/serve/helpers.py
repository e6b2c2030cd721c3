"""Shared fixtures for the serve tests: spec builders and picklable
work functions for the spawn workers.

The service decodes every submission through the codec and hands its
workers the resulting :class:`~repro.core.runner.ExperimentTask`, so the
scripted work functions receive tasks; behavior is keyed on the seed:

* ``666`` — scripted deterministic task failure (``task-error``).
* ``[700, 800)`` — gated: blocks until the ``REPRO_TEST_GATE`` file
  disappears (lets tests hold jobs in flight deterministically).
* ``[900, 1000)`` — suicidal: the worker SIGKILLs itself on the first
  attempt (flag file under ``REPRO_TEST_GATE``'s directory) and
  succeeds on the retry.
* anything else — returns immediately.
"""

from __future__ import annotations

import os
import signal
import time

#: Every counter a service's ``/v1/stats`` lists, from the first request.
SERVICE_COUNTERS = (
    "core.cache_evictions", "core.cache_hits", "core.cache_misses",
    "core.crashes", "core.retries", "core.timeouts", "core.workers_replaced",
    "serve.accepted", "serve.cache_hits", "serve.deduped", "serve.executed",
    "serve.failed", "serve.frames_dropped", "serve.frames_routed",
    "serve.recovered", "serve.shed",
)


def spec_for(seed: int, scale: float = 0.02, **kwargs) -> dict:
    spec = {
        "kind": "performance",
        "workload": "TS",
        "seed": seed,
        "policy": {"name": "fixed", "block_size": "4K"},
        "system": {"scale": scale},
    }
    spec.update(kwargs)
    return spec


def tiny_real_spec(seed: int = 7) -> dict:
    """A spec small enough to really execute in well under a second."""
    return spec_for(
        seed, kwargs={"app_cap_ms": 1_000.0, "seq_cap_ms": 1_000.0}
    )


def scripted_work(task) -> tuple:
    seed = task.config.seed
    if seed == 666:
        return ("task-error", "Traceback: scripted deterministic failure", 0.0)
    if 700 <= seed < 800:
        gate = os.environ.get("REPRO_TEST_GATE")
        while gate and os.path.exists(gate):
            time.sleep(0.02)
    if 900 <= seed < 1000:
        gate = os.environ.get("REPRO_TEST_GATE", "")
        flag = f"{gate}.attempted.{seed}"
        if not os.path.exists(flag):
            with open(flag, "w") as handle:
                handle.write("attempted")
            os.kill(os.getpid(), signal.SIGKILL)
    return ("ok", {"seed": seed, "square": seed * seed}, 0.01)


def emitting_work(task) -> tuple:
    """Streams a few telemetry frames before finishing (SSE tests)."""
    from repro.obs.telemetry import emit

    for tick in range(3):
        emit({"stage": "tick", "sim_ms": float(tick), "cap_ms": 3.0})
        time.sleep(0.05)
    return ("ok", {"seed": task.config.seed}, 0.15)


def drain_gated(service, gate: str, timeout_s: float = 10.0) -> None:
    """Release the gate and wait for the service to go idle."""
    if os.path.exists(gate):
        os.unlink(gate)
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if service.stats_view()["gauges"]["serve.depth"] == 0:
            return
        time.sleep(0.02)
    raise AssertionError("service did not drain in time")

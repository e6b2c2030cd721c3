"""Determinism guarantees of the engine's zero-delay fast path.

The engine routes zero-delay events through a FIFO immediate queue instead
of the heap (``Simulator(immediate_queue=True)``, the default).  These
tests pin the contract from docs/MODEL.md: the fast path fires *exactly*
the events the reference pure-heap scheduler would fire, in exactly the
same ``(time, seq)`` order — including under interleaved zero-delay
chains, same-timestamp timer ties, cancellations, and a full figure-2
performance point.
"""

from __future__ import annotations

import pytest

from repro.core.configs import ExperimentConfig, RestrictedPolicy, SystemConfig
from repro.core.experiments import run_performance_experiment
from repro.sim.engine import Simulator, Waitable
from repro.sim.rng import RandomStream


def _run_reference_and_fast(build):
    """Run ``build(sim, log)`` under both engines; return the two logs."""
    logs = []
    for immediate_queue in (True, False):
        sim = Simulator(immediate_queue=immediate_queue)
        log: list = []
        build(sim, log)
        sim.run()
        logs.append(log)
    return logs


class TestImmediateQueueOrdering:
    def test_zero_delay_after_same_timestamp_timer_fires_second(self):
        """A timer already queued at time T fires before a zero-delay event
        created at T by an earlier callback: (T, seq) order, not LIFO."""

        def build(sim, log):
            def first(s):
                log.append("first")
                s.schedule(0.0, lambda s2: log.append("immediate"))

            sim.schedule(5.0, first)
            sim.schedule(5.0, lambda s: log.append("second-timer"))

        fast, reference = _run_reference_and_fast(build)
        assert fast == ["first", "second-timer", "immediate"]
        assert reference == fast

    def test_interleaved_zero_delay_chains_match_reference(self):
        """Randomized mix of quantized timers, zero-delay cascades,
        and waitable resumptions fires identically under both engines."""

        def build(sim, log):
            rng = RandomStream(2024, "determinism")
            waitables = [Waitable() for _ in range(40)]

            def fire(tag, depth):
                def callback(s):
                    log.append((s.now, tag))
                    if depth > 0:
                        s.schedule(0.0, fire((tag, "z"), depth - 1))
                    if isinstance(tag, int):
                        # Only root events spawn followers, so the
                        # cascade terminates.
                        if tag % 5 == 0:
                            s.schedule(
                                0.25 * rng.uniform_int(0, 8),
                                fire((tag, "t"), 0),
                            )
                        if tag % 7 == 0:
                            index = rng.uniform_int(0, len(waitables) - 1)
                            if not waitables[index].done:
                                waitables[index].succeed(s, tag)

                return callback

            def waiter(index):
                value = yield waitables[index]
                log.append(("waiter", index, value))

            for index in range(len(waitables)):
                sim.process(waiter(index))
            for tag in range(120):
                sim.schedule(0.25 * rng.uniform_int(0, 40), fire(tag, tag % 3))
            # Waitables that never succeed leave their waiters pending;
            # that is fine — both engines must agree on everything fired.

        fast, reference = _run_reference_and_fast(build)
        assert fast == reference
        assert len(fast) > 150

    def test_already_done_waitable_yield_order_matches_reference(self):
        def build(sim, log):
            done = Waitable()

            def early(s):
                done.succeed(s, "v")

            def late():
                yield 2.0
                value = yield done  # already complete: immediate resume
                log.append(("late", sim_now(), value))

            def tied():
                yield 2.0
                log.append(("tied", sim_now()))

            sim_now = lambda: sim.now  # noqa: E731
            sim.schedule(1.0, early)
            sim.process(late())
            sim.process(tied())

        fast, reference = _run_reference_and_fast(build)
        assert fast == reference
        # The already-done resume gets a fresh seq at t=2, so it must not
        # overtake the tied sleeper whose timer was queued at t=0.
        assert fast == [("tied", 2.0), ("late", 2.0, "v")]

    def test_events_executed_identical_on_random_workload(self):
        def build(sim, log):
            rng = RandomStream(7, "count")

            def tick(s):
                log.append(s.now)
                if len(log) < 500:
                    s.schedule(0.0 if len(log) % 3 == 0 else rng.uniform(0.0, 2.0), tick)

            sim.schedule(0.0, tick)

        counts = []
        for immediate_queue in (True, False):
            sim = Simulator(immediate_queue=immediate_queue)
            log: list = []
            build(sim, log)
            sim.run()
            counts.append((sim.events_executed, log))
        assert counts[0] == counts[1]


class TestFigure2PointParity:
    """A full figure-2 sweep point must be invariant to the fast path."""

    @pytest.fixture(scope="class")
    def results(self):
        config = ExperimentConfig(
            policy=RestrictedPolicy(),
            workload="TS",
            system=SystemConfig(scale=0.02),
            seed=1991,
        )
        out = {}
        for label, immediate_queue in (("fast", True), ("reference", False)):
            sims = []

            def factory(flag=immediate_queue):
                sim = Simulator(immediate_queue=flag)
                sims.append(sim)
                return sim

            result = run_performance_experiment(
                config,
                app_cap_ms=15_000.0,
                seq_cap_ms=15_000.0,
                simulator_factory=factory,
            )
            out[label] = (result, sims[0].events_executed)
        return out

    def test_events_executed_parity(self, results):
        assert results["fast"][1] == results["reference"][1]
        assert results["fast"][1] > 1000

    def test_performance_result_parity(self, results):
        assert results["fast"][0] == results["reference"][0]

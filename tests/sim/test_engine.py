"""Unit tests for the simulation engine: scheduling, processes, waitables."""

import pytest

from repro.audit.invariants import AuditConfig, InvariantAuditor
from repro.errors import SimulationError
from repro.sim.engine import AllOf, Simulator, Waitable, join


def make_callback(log, tag):
    def callback(sim):
        log.append((tag, sim.now))

    return callback


class TestScheduling:
    def test_callbacks_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, lambda s: log.append("late"))
        sim.schedule(1.0, lambda s: log.append("early"))
        sim.run()
        assert log == ["early", "late"]
        assert sim.now == 5.0

    def test_schedule_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda s: None)

    def test_schedule_at_past_raises(self):
        sim = Simulator()
        sim.schedule(10.0, lambda s: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda s: None)

    def test_run_until_stops_clock_exactly(self):
        sim = Simulator()
        log = []
        sim.schedule(100.0, lambda s: log.append("too late"))
        sim.run(until=50.0)
        assert log == []
        assert sim.now == 50.0

    def test_run_until_then_resume(self):
        sim = Simulator()
        log = []
        sim.schedule(100.0, lambda s: log.append("fired"))
        sim.run(until=50.0)
        sim.run()
        assert log == ["fired"]

    def test_pop_orders_by_time(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, make_callback(log, "b"))
        sim.schedule(1.0, make_callback(log, "a"))
        sim.schedule(9.0, make_callback(log, "c"))
        sim.run()
        assert log == [("a", 1.0), ("b", 5.0), ("c", 9.0)]

    def test_ties_break_fifo(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, make_callback(log, "first"))
        sim.schedule(3.0, make_callback(log, "second"))
        sim.run()
        assert log == [("first", 3.0), ("second", 3.0)]

    def test_run_on_empty_queue_fires_nothing(self):
        sim = Simulator()
        sim.run()
        assert (sim.events_executed, sim.now) == (0, 0.0)
        sim.run(until=5.0)
        assert (sim.events_executed, sim.now) == (0, 5.0)

    def test_stop_ends_run_early(self):
        sim = Simulator()
        log = []

        def stopper(s):
            log.append("stop")
            s.stop()

        sim.schedule(1.0, stopper)
        sim.schedule(2.0, lambda s: log.append("after"))
        sim.run()
        assert log == ["stop"]
        assert sim.pending_events == 1

    def test_stop_when_predicate(self):
        sim = Simulator()
        log = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda s: log.append(s.now))
        sim.run(stop_when=lambda: len(log) >= 2)
        assert log == [1.0, 2.0]

    def test_events_executed_counter(self):
        sim = Simulator()
        for t in range(5):
            sim.schedule(float(t), lambda s: None)
        sim.run()
        assert sim.events_executed == 5


class TestProcesses:
    def test_float_yield_sleeps(self):
        sim = Simulator()
        ticks = []

        def worker():
            yield 2.0
            ticks.append(sim.now)
            yield 3.0
            ticks.append(sim.now)

        sim.process(worker())
        sim.run()
        assert ticks == [2.0, 5.0]

    def test_process_return_value(self):
        sim = Simulator()

        def worker():
            yield 1.0
            return 42

        process = sim.process(worker())
        sim.run()
        assert process.done
        assert process.value == 42

    def test_process_join(self):
        sim = Simulator()
        results = []

        def child():
            yield 4.0
            return "child-result"

        def parent():
            value = yield sim.process(child())
            results.append((sim.now, value))

        sim.process(parent())
        sim.run()
        assert results == [(4.0, "child-result")]

    def test_waiting_on_completed_waitable_resumes_immediately(self):
        sim = Simulator()
        waitable = Waitable()
        log = []

        def early():
            yield 1.0
            waitable.succeed(sim, "v")

        def late():
            yield 2.0
            value = yield waitable
            log.append((sim.now, value))

        sim.process(early())
        sim.process(late())
        sim.run()
        assert log == [(2.0, "v")]

    def test_yielding_garbage_raises(self):
        sim = Simulator()

        def bad():
            yield "not a waitable"

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_timeout_waitable(self):
        sim = Simulator()
        log = []

        def worker():
            yield sim.timeout(7.5)
            log.append(sim.now)

        sim.process(worker())
        sim.run()
        assert log == [7.5]


class TestWaitable:
    def test_double_succeed_raises(self):
        sim = Simulator()
        waitable = Waitable()
        waitable.succeed(sim)
        with pytest.raises(SimulationError):
            waitable.succeed(sim)

    def test_on_success_after_done_raises(self):
        sim = Simulator()
        waitable = Waitable()
        waitable.succeed(sim)
        with pytest.raises(SimulationError):
            waitable.on_success(lambda s, v: None)

    def test_multiple_waiters_all_resume(self):
        sim = Simulator()
        waitable = Waitable()
        log = []

        def waiter(tag):
            value = yield waitable
            log.append((tag, value))

        sim.process(waiter("a"))
        sim.process(waiter("b"))
        sim.schedule(3.0, lambda s: waitable.succeed(s, 99))
        sim.run()
        assert sorted(log) == [("a", 99), ("b", 99)]


class TestAllOf:
    def test_waits_for_slowest(self):
        sim = Simulator()
        log = []
        children = [Waitable(), Waitable()]

        def waiter():
            values = yield AllOf(children)
            log.append((sim.now, values))

        sim.process(waiter())
        sim.schedule(2.0, lambda s: children[0].succeed(s, "fast"))
        sim.schedule(8.0, lambda s: children[1].succeed(s, "slow"))
        sim.run()
        assert log == [(8.0, ["fast", "slow"])]

    def test_empty_all_of_is_done(self):
        assert AllOf([]).done

    def test_done_joins_complete_synchronously(self):
        sim = Simulator()
        child = Waitable()
        child.succeed(sim, 1)
        empty, all_done = AllOf([]), AllOf([child, child])
        assert (empty.done, empty.value) == (True, [])
        assert (all_done.done, all_done.value) == (True, [1, 1])
        assert sim.pending_events == 0

    def test_countdown_schedules_no_event_of_its_own(self):
        sim = Simulator()
        inner, other = [Waitable(), Waitable()], Waitable()
        outer = AllOf([AllOf(inner), other])
        log = []

        def waiter():
            log.append((yield outer))

        sim.process(waiter())
        sim.schedule(1.0, lambda s: inner[0].succeed(s, "a"))
        sim.schedule(2.0, lambda s: other.succeed(s, "c"))
        sim.schedule(3.0, lambda s: inner[1].succeed(s, "b"))
        sim.run()
        # Start, three completions, one resume: the joins add nothing.
        assert sim.events_executed == 5
        assert log == [[["a", "b"], "c"]]

    def test_duplicate_child_counts_twice(self):
        sim = Simulator()
        child = Waitable()
        combined = AllOf([child, child])
        child.succeed(sim, 4)
        assert (combined.done, combined.value) == (True, [4, 4])

    def test_pre_completed_children(self):
        sim = Simulator()
        child = Waitable()
        child.succeed(sim, 1)
        combined = AllOf([child])
        assert combined.done
        assert combined.value == [1]

    def test_mixed_done_and_pending(self):
        sim = Simulator()
        done_child = Waitable()
        done_child.succeed(sim, "x")
        pending = Waitable()
        combined = AllOf([done_child, pending])
        assert not combined.done
        log = []

        def waiter():
            values = yield combined
            log.append(values)

        sim.process(waiter())
        sim.schedule(1.0, lambda s: pending.succeed(s, "y"))
        sim.run()
        assert log == [["x", "y"]]


class TestJoin:
    def test_lone_waitable_is_returned_as_is(self):
        child = Waitable()
        assert join([child]) is child

    def test_several_waitables_make_an_all_of(self):
        children = [Waitable(), Waitable()]
        assert isinstance(join(children), AllOf)

    def test_empty_join_is_done(self):
        assert join([]).done


class TestOrderingProperty:
    def test_random_schedule_executes_in_time_order(self):
        """Property: arbitrary interleaved scheduling still fires events in
        global nondecreasing time order with FIFO tie-breaks."""
        from repro.sim.rng import RandomStream

        rng = RandomStream(123)
        sim = Simulator()
        fired = []

        def callback(tag):
            def run(s):
                fired.append((s.now, tag))
                # Events may schedule more events, including at "now".
                if tag % 7 == 0:
                    s.schedule(0.0, callback(tag + 1000))
                if tag % 11 == 0:
                    s.schedule(rng.uniform(0.0, 5.0), callback(tag + 2000))

            return run

        for tag in range(200):
            sim.schedule(rng.uniform(0.0, 100.0), callback(tag))
        sim.run()
        times = [t for t, _ in fired]
        assert times == sorted(times)
        assert len(fired) >= 200

    def test_nested_processes_interleave_correctly(self):
        sim = Simulator()
        log = []

        def child(name, delay):
            yield delay
            log.append((sim.now, name))
            return name

        def parent():
            first = sim.process(child("fast", 1.0))
            second = sim.process(child("slow", 5.0))
            results = []
            results.append((yield first))
            log.append((sim.now, "joined-fast"))
            results.append((yield second))
            log.append((sim.now, "joined-slow"))
            assert results == ["fast", "slow"]

        sim.process(parent())
        sim.run()
        assert [entry[1] for entry in log] == [
            "fast", "joined-fast", "slow", "joined-slow",
        ]


def _quiet_auditor() -> InvariantAuditor:
    """A real auditor with no subsystems and no sweeps due."""
    return InvariantAuditor(AuditConfig(cadence_events=10**9))


def _schedule_pinger(sim, log, limit=50):
    def pinger(s, n=0):
        log.append((s.now, n))
        if n < limit:
            s.schedule(0.25 if n % 3 else 0.0, pinger, n + 1)

    sim.schedule(0.0, pinger)


class TestAuditedRun:
    """The auditor rides the one run loop's per-event stop check."""

    def test_audited_run_matches_plain_run(self):
        runs = []
        for audited in (False, True):
            sim = Simulator()
            if audited:
                _quiet_auditor().attach(sim)
            log = []
            _schedule_pinger(sim, log)
            sim.run()
            runs.append((log, sim.events_executed, sim.now))
        assert runs[0] == runs[1]

    def test_user_stop_when_honoured_with_auditor(self):
        sim = Simulator()
        auditor = _quiet_auditor().attach(sim)
        log = []
        _schedule_pinger(sim, log)
        sim.run(stop_when=lambda: len(log) >= 7)
        assert len(log) == 7
        assert sim.events_executed == 7
        assert auditor.event_index == 7

    def test_event_index_tracks_events_executed_across_segments(self):
        sim = Simulator()
        auditor = _quiet_auditor().attach(sim)
        _schedule_pinger(sim, [])
        for until in (2.0, 4.5, 7.25):
            sim.run(until=until)
            assert sim.now == until
            assert auditor.event_index == sim.events_executed
        sim.run()
        assert auditor.event_index == sim.events_executed == 51

    def test_events_executed_is_live_inside_callbacks(self):
        sim = Simulator()
        seen = []
        for delay in (1.0, 2.0, 2.0, 3.0):
            sim.schedule(delay, lambda s: seen.append(s.events_executed))
        sim.run()
        assert seen == [0, 1, 2, 3]
        assert sim.events_executed == 4


class TestRaisingCallback:
    @pytest.mark.parametrize("immediate_queue", [True, False])
    @pytest.mark.parametrize("audited", [False, True])
    def test_pending_events_exact_after_raise(self, immediate_queue, audited):
        sim = Simulator(immediate_queue=immediate_queue)
        if audited:
            _quiet_auditor().attach(sim)

        def boom(s):
            raise RuntimeError("boom")

        sim.schedule(0.0, lambda s: None)
        sim.schedule(1.0, boom)
        sim.schedule(2.0, lambda s: None)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert sim.pending_events == len(sim.live_events()) == 1
        assert sim.events_executed == 1
        sim.run()  # the survivor still fires, and the count reaches 0
        assert sim.pending_events == 0
        assert sim.now == 2.0

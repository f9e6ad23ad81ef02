"""Unit tests for the discrete-event kernel (repro.sim.engine)."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    SimulationError,
    Simulator,
)


class TestSimulatorBasics:
    def test_initial_time_is_zero(self):
        assert Simulator().now == 0.0

    def test_timeout_advances_clock(self):
        sim = Simulator()
        sim.timeout(5.0)
        sim.run()
        assert sim.now == 5.0

    def test_timeout_value_delivered(self):
        sim = Simulator()
        got = []

        def proc():
            v = yield sim.timeout(1.0, "payload")
            got.append(v)

        sim.process(proc())
        sim.run()
        assert got == ["payload"]

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        for d in (3.0, 1.0, 2.0):
            sim.call_after(d, order.append, d)
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        for i in range(10):
            sim.call_after(1.0, order.append, i)
        sim.run()
        assert order == list(range(10))

    def test_run_until_is_exclusive(self):
        sim = Simulator()
        fired = []
        sim.call_after(5.0, fired.append, "at5")
        sim.run(until=5.0)
        assert fired == []
        assert sim.now == 5.0
        sim.run()
        assert fired == ["at5"]

    def test_run_until_advances_clock_past_empty_calendar(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_max_events_budget(self):
        sim = Simulator()
        hits = []
        for i in range(5):
            sim.call_after(float(i + 1), hits.append, i)
        sim.run(max_events=2)
        assert hits == [0, 1]

    def test_run_stop_event(self):
        sim = Simulator()
        hits = []
        stop = sim.timeout(2.0)
        for i in range(5):
            sim.call_after(float(i + 1), hits.append, i)
        sim.run(stop=stop)
        # The stop timeout was scheduled first, so at t=2 it fires before
        # the t=2 callback; only the t=1 callback has run.
        assert hits == [0]

    def test_call_at_past_raises(self):
        sim = Simulator()
        sim.timeout(5.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_event_count_increments(self):
        sim = Simulator()
        for _ in range(4):
            sim.timeout(1.0)
        sim.run()
        assert sim.event_count == 4

    def test_peek_next_event_time(self):
        sim = Simulator()
        assert sim.peek() == float("inf")
        sim.timeout(3.0)
        assert sim.peek() == 3.0

    def test_event_count_is_pops_across_run_modes(self):
        """event_count counts processed events only: pending entries,
        run(until) stops and step() all leave it exact."""
        sim = Simulator()
        for d in (1.0, 2.0, 3.0):
            sim.call_after(d, lambda: None)
        assert sim.event_count == 0
        sim.run(until=2.5)
        assert sim.event_count == 2
        sim.step()
        assert sim.event_count == 3
        with pytest.raises(IndexError):
            sim.step()
        assert sim.event_count == 3


class TestOrdering:
    """The ``(time, seq)`` tie-break contract of ``Simulator._push``."""

    def test_same_timestamp_from_handler_fires_fifo(self):
        """Events scheduled *from within a handler* at the current
        timestamp fire after the already-pending same-time events, in
        schedule order.  This pins the seq tie-break golden digests rest
        on."""
        sim = Simulator()
        order = []

        def late(tag: str) -> None:
            order.append((sim.now, tag))

        def handler() -> None:
            order.append((sim.now, "handler"))
            sim.call_after(0.0, late, "h1")
            sim.call_at(sim.now, late, "h2")

        sim.call_after(5.0, handler)
        sim.call_after(5.0, late, "pre1")
        sim.call_after(5.0, late, "pre2")
        sim.run()
        assert order == [
            (5.0, "handler"), (5.0, "pre1"), (5.0, "pre2"),
            (5.0, "h1"), (5.0, "h2"),
        ]

    def test_zero_delay_self_reschedule_chain(self):
        """A handler rescheduling itself with delay 0 runs strictly after
        each prior firing (seq keeps advancing), never starving or looping
        within one timestamp pop."""
        sim = Simulator()
        fired = []

        def tick(n: int) -> None:
            fired.append((sim.now, n))
            if n < 5:
                sim.call_after(0.0, tick, n + 1)

        sim.call_after(1.0, tick, 0)
        sim.run()
        assert fired == [(1.0, n) for n in range(6)]

    def test_run_until_then_schedule_earlier(self):
        """Scheduling after run(until=...) returns, earlier than the
        still-pending event, fires in time order and never runs the clock
        backwards."""
        sim = Simulator()
        order: list[tuple[float, str]] = []

        def fire(tag: str) -> None:
            order.append((sim.now, tag))

        sim.call_after(100.0, fire, "late")
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert order == []
        sim.call_after(1.0, fire, "early")
        sim.run()
        assert order == [(6.0, "early"), (100.0, "late")]
        assert sim.now == 100.0

    def test_push_into_the_past_raises(self):
        """Every way of scheduling before ``now`` fails loudly with a
        SimulationError and leaves the pending set untouched."""
        sim = Simulator()
        sim.timeout(10.0)
        sim.run()
        with pytest.raises(SimulationError, match="negative delay"):
            sim.event().succeed(delay=-1.0)
        with pytest.raises(SimulationError, match="negative delay"):
            sim.call_after(-0.5, lambda: None)
        with pytest.raises(SimulationError, match="into the past"):
            sim.call_at(5.0, lambda: None)
        assert sim.peek() == float("inf")
        assert sim.event_count == 1


class TestEvent:
    def test_succeed_delivers_value(self):
        sim = Simulator()
        ev = sim.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.succeed(42)
        sim.run()
        assert seen == [42]

    def test_double_trigger_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_then_succeed_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.fail(RuntimeError("x"))
        with pytest.raises(SimulationError):
            ev.succeed(1)

    def test_failed_event_throws_into_process(self):
        sim = Simulator()
        ev = sim.event()
        caught = []

        def proc():
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(proc())
        ev.fail(RuntimeError("boom"))
        sim.run()
        assert caught == ["boom"]

    def test_triggered_vs_processed(self):
        sim = Simulator()
        ev = sim.event()
        assert not ev.triggered and not ev.processed
        ev.succeed()
        assert ev.triggered and not ev.processed
        sim.run()
        assert ev.processed

    def test_succeed_with_delay(self):
        sim = Simulator()
        when = []
        ev = sim.event()
        ev.callbacks.append(lambda e: when.append(sim.now))
        ev.succeed(None, delay=7.5)
        sim.run()
        assert when == [7.5]


class TestProcess:
    def test_return_value_is_process_value(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            return "done"

        p = sim.process(proc())
        sim.run()
        assert p.value == "done"

    def test_process_waiting_on_process(self):
        sim = Simulator()
        log = []

        def inner():
            yield sim.timeout(2.0)
            return "inner-result"

        def outer():
            v = yield sim.process(inner())
            log.append((sim.now, v))

        sim.process(outer())
        sim.run()
        assert log == [(2.0, "inner-result")]

    def test_yield_already_processed_event(self):
        sim = Simulator()
        log = []
        ev = sim.event()
        ev.succeed("early")

        def late():
            yield sim.timeout(5.0)
            v = yield ev  # processed long ago
            log.append((sim.now, v))

        sim.process(late())
        sim.run()
        assert log == [(5.0, "early")]

    def test_yield_non_event_raises(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_exception_in_process_fails_its_event(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("model bug")

        p = sim.process(bad())
        sim.run()
        assert not p.ok
        assert isinstance(p.value, ValueError)

    def test_failure_propagates_to_waiter(self):
        sim = Simulator()
        caught = []

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("model bug")

        def waiter():
            try:
                yield sim.process(bad())
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(waiter())
        sim.run()
        assert caught == ["model bug"]

    def test_immediate_return_process(self):
        sim = Simulator()

        def instant():
            return "x"
            yield  # pragma: no cover - makes it a generator

        p = sim.process(instant())
        sim.run()
        assert p.value == "x"

    def test_many_interleaved_processes_deterministic(self):
        def run_once():
            sim = Simulator()
            log = []

            def proc(i):
                yield sim.timeout(i % 3)
                log.append(i)
                yield sim.timeout((i * 7) % 5)
                log.append(-i)

            for i in range(20):
                sim.process(proc(i))
            sim.run()
            return log

        assert run_once() == run_once()


class TestCombinators:
    def test_allof_collects_in_argument_order(self):
        sim = Simulator()
        got = []

        def proc():
            vals = yield sim.all_of([sim.timeout(3, "slow"), sim.timeout(1, "fast")])
            got.append((sim.now, vals))

        sim.process(proc())
        sim.run()
        assert got == [(3.0, ["slow", "fast"])]

    def test_allof_empty_fires_immediately(self):
        sim = Simulator()
        got = []

        def proc():
            vals = yield sim.all_of([])
            got.append((sim.now, vals))

        sim.process(proc())
        sim.run()
        assert got == [(0.0, [])]

    def test_allof_failure_propagates(self):
        sim = Simulator()
        bad = sim.event()
        caught = []

        def proc():
            try:
                yield sim.all_of([sim.timeout(1), bad])
            except RuntimeError:
                caught.append(True)

        sim.process(proc())
        bad.fail(RuntimeError("child failed"))
        sim.run()
        assert caught == [True]

    def test_anyof_first_value_wins(self):
        sim = Simulator()
        got = []

        def proc():
            v = yield sim.any_of([sim.timeout(3, "slow"), sim.timeout(1, "fast")])
            got.append((sim.now, v))

        sim.process(proc())
        sim.run()
        assert got == [(1.0, "fast")]

    def test_anyof_empty_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.any_of([])

    def test_allof_counts_processed_children(self):
        """A child that fired before the AllOf was built counts at once
        (regression: its callback was appended and never ran, so the
        AllOf never fired and its waiter hung)."""
        sim = Simulator()
        done = sim.event()
        done.succeed("early")
        got = []

        def proc():
            yield sim.timeout(1.0)
            vals = yield sim.all_of([done, sim.timeout(2.0, "late")])
            got.append((sim.now, vals))

        sim.process(proc())
        sim.run()
        assert got == [(3.0, ["early", "late"])]

    def test_allof_of_only_processed_children_fires(self):
        sim = Simulator()
        a, b = sim.event(), sim.event()
        a.succeed(1)
        b.succeed(2)
        sim.run()
        got = []

        def proc():
            got.append((yield sim.all_of([a, b])))

        sim.process(proc())
        sim.run()
        assert got == [[1, 2]]

    def test_allof_fails_at_once_on_processed_failed_child(self):
        sim = Simulator()
        bad = sim.event()
        bad.fail(RuntimeError("gone"))
        sim.run()
        caught = []

        def proc():
            try:
                yield sim.all_of([sim.timeout(5.0), bad])
            except RuntimeError as exc:
                caught.append((sim.now, str(exc)))

        sim.process(proc())
        sim.run()
        assert caught == [(0.0, "gone")]

    def test_anyof_processed_child_wins_at_once(self):
        sim = Simulator()
        done = sim.event()
        done.succeed("first")
        sim.run()
        got = []

        def proc():
            got.append((yield sim.any_of([sim.timeout(4.0, "slow"), done])))
            got.append(sim.now)

        sim.process(proc())
        sim.run()
        assert got == ["first", 0.0]

    def test_anyof_processed_failed_child_fails(self):
        sim = Simulator()
        bad = sim.event()
        bad.fail(KeyError("k"))
        sim.run()
        caught = []

        def proc():
            try:
                yield sim.any_of([bad, sim.timeout(4.0)])
            except KeyError:
                caught.append(sim.now)

        sim.process(proc())
        sim.run()
        assert caught == [0.0]

    def test_allof_is_event_subclass(self):
        sim = Simulator()
        assert isinstance(sim.all_of([sim.timeout(1)]), Event)
        assert isinstance(AllOf(sim, [sim.timeout(1)]), Event)
        assert isinstance(AnyOf(sim, [sim.timeout(1)]), Event)

"""Unit tests for the discrete-event kernel (repro.sim.engine)."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import FIFO, SCAN, Disk, DiskRequest
from repro.params import DEFAULT_PARAMS, DiskParams
from repro.sim import (
    AllOf,
    Event,
    QueueFullError,
    ServiceCenter,
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


class TestNaNDelays:
    """NaN passes a ``delay < 0`` guard; every entry point rejects it and
    leaves the pending set and the clock untouched."""

    def test_call_after_nan_rejected(self):
        sim = Simulator()
        order = []
        for d in (1.0, 2.0, 3.0):
            sim.call_after(d, order.append, d)
        with pytest.raises(SimulationError, match="nan"):
            sim.call_after(float("nan"), order.append, "nan")
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_timeout_nan_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="nan"):
            sim.timeout(float("nan"))
        sim.run()
        assert sim.now == 0.0 and sim.event_count == 0

    def test_submit_nan_rejected(self):
        sim = Simulator()
        sc = ServiceCenter(sim, "cpu", capacity=1)
        sc.submit(1.0)
        with pytest.raises(ValueError, match="nan"):
            sc.submit(float("nan"))  # would queue, then start at t=1
        sim.run()
        assert sim.now == 1.0 and sc.completed == 1 and sc.load == 0


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

    def test_allof_is_event_subclass(self):
        sim = Simulator()
        assert isinstance(sim.all_of([sim.timeout(1)]), Event)
        assert isinstance(AllOf(sim, [sim.timeout(1)]), Event)


# -- in-place completion of service-centre jobs and disk runs -------------

#: Disk times that are exact binary fractions (contiguous 8 KB run:
#: 0.5 ms; with both seeks: 2.0 ms), so disk completions tie with CPU
#: completions and with the ticks below.
TIE_PARAMS = dataclasses.replace(
    DEFAULT_PARAMS,
    disk=DiskParams(seek_ms=1.0, metadata_seek_ms=0.5, transfer_per_kb_ms=1 / 16),
)


class CountingSimulator(Simulator):
    """A simulator that counts heap pushes (in-place firing makes none)."""

    __slots__ = ("pushes",)

    def __init__(self) -> None:
        super().__init__()
        self.pushes = 0

    def _push(self, delay, event):
        self.pushes += 1
        super()._push(delay, event)


def _drain_by_steps(sim):
    """The reference loop: one event per step(), never in place."""
    while sim.peek() != float("inf"):
        sim.step()


def _start_mix(sim, mix, log):
    """Start the clients and ticks of one job mix; every completion,
    drop and tick appends ``(now, tag)`` to ``log``.  The tag includes
    ``event_count``, so a waiter fired in place must see the count a
    waiter fired by its own pop sees."""
    cpu = ServiceCenter(sim, "cpu", capacity=mix["capacity"],
                        queue_limit=mix["queue_limit"])
    disk = Disk(sim, "disk", TIE_PARAMS, discipline=mix["discipline"],
                queue_limit=mix["disk_queue_limit"])
    bpe = TIE_PARAMS.extent_kb // TIE_PARAMS.block_kb

    def client(cid, steps):
        for i, (think, on_disk, arg) in enumerate(steps):
            if think:
                yield sim.timeout(think)
            if on_disk:
                file_id, block = arg
                ev = disk.submit(DiskRequest(file_id, block // bpe, block, 1, 8.0))
            else:
                ev = cpu.submit(arg, (cid, i))
            # A second waiter, ahead of the process: callbacks keep order.
            ev.callbacks.append(lambda e, tag=(cid, i): log.append(
                (sim.now, ("cb", tag, sim.event_count))))
            try:
                yield ev
            except QueueFullError:
                log.append((sim.now, ("drop", (cid, i), sim.event_count)))
                continue
            log.append((sim.now, ("done", (cid, i), sim.event_count)))

    for cid, steps in enumerate(mix["clients"]):
        sim.process(client(cid, steps))
    for t in mix["ticks"]:
        sim.call_at(t, lambda t=t: log.append((sim.now, ("tick", t, sim.event_count))))
    if mix["stall"] is not None:
        at, duration = mix["stall"]
        sim.call_at(at, disk.stall, duration)


def _replay(mix, drain):
    """((log, event_count, now), heap pushes) of one mix under run() or
    a step() loop."""
    sim = CountingSimulator()
    log = []
    _start_mix(sim, mix, log)
    if drain:
        sim.run()
    else:
        _drain_by_steps(sim)
    return (log, sim.event_count, sim.now), sim.pushes


_steps = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.5, 1.0]),                    # think time
        st.booleans(),                                           # on the disk?
        st.sampled_from([0.0, 0.5, 1.0]),                        # CPU demand
        st.tuples(st.integers(0, 2), st.integers(0, 15)),        # disk run
    ).map(lambda s: (s[0], s[1], s[3] if s[1] else s[2])),
    min_size=1, max_size=5,
)
_mixes = st.fixed_dictionaries({
    "capacity": st.integers(1, 3),
    "queue_limit": st.integers(0, 3),
    "discipline": st.sampled_from([FIFO, SCAN]),
    "disk_queue_limit": st.integers(1, 4),
    "clients": st.lists(_steps, min_size=1, max_size=6),
    "ticks": st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 4.0]), max_size=4),
    "stall": st.none() | st.tuples(st.sampled_from([0.0, 0.5, 2.0]),
                                   st.sampled_from([0.5, 1.0, 3.0])),
})

#: Two clients on one CPU and one disk, with a stall: jobs and runs each
#: complete both in place and through the heap (a zero-demand job that
#: starts at a completion's instant forces the latter).
_FIXED_MIX = {
    "capacity": 1, "queue_limit": 2, "discipline": SCAN, "disk_queue_limit": 4,
    "clients": [
        [(0.0, False, 0.5), (0.0, True, (0, 0)), (0.0, True, (0, 1)), (0.0, False, 0.0)],
        [(0.0, False, 0.0), (2.0, True, (1, 8)), (0.0, False, 0.5)],
    ],
    "ticks": [0.5],
    "stall": (1.0, 0.5),
}


class TestInPlaceCompletion:
    """A completion that is the kernel's next pop fires in place, inside
    run()'s drain only.  Same events, same order, same count as one
    push per completion; only the heap round trips go away."""

    def test_drain_fires_in_place_with_same_stream(self):
        drained, drained_pushes = _replay(_FIXED_MIX, drain=True)
        stepped, stepped_pushes = _replay(_FIXED_MIX, drain=False)
        assert drained == stepped
        assert drained_pushes < stepped_pushes

    def test_budget_and_step_count_one_event_per_pop(self):
        """run(max_events=k) processes exactly k events and step() one,
        with service-centre and disk jobs in flight."""
        (drained_log, total, _), _ = _replay(_FIXED_MIX, drain=True)
        for k in (1, 2, 3, 5):
            sim = Simulator()
            log = []
            _start_mix(sim, _FIXED_MIX, log)
            while sim.peek() != float("inf"):
                before = sim.event_count
                sim.run(max_events=k)
                assert sim.event_count - before == min(k, total - before)
                if sim.peek() != float("inf"):
                    before = sim.event_count
                    sim.step()
                    assert sim.event_count == before + 1
            assert sim.event_count == total
            assert log == drained_log

    def test_step_hook_sees_every_event(self):
        (drained_log, count, now), _ = _replay(_FIXED_MIX, drain=True)
        sim = Simulator()
        log = []
        calls = []
        sim.add_step_hook(lambda s: calls.append(s.now))
        _start_mix(sim, _FIXED_MIX, log)
        sim.run()
        assert len(calls) == sim.event_count == count
        assert (log, sim.now) == (drained_log, now)

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_completion_tied_with_pending_event_fires_after_it(self, on_disk):
        """A job finishing at the instant of an event scheduled after it
        started fires its waiter after that event, as a push would."""
        sim = Simulator()
        order = []
        if on_disk:
            job = Disk(sim, "d", TIE_PARAMS).submit(DiskRequest(0, 0, 0, 1, 8.0))
        else:
            job = ServiceCenter(sim, "cpu").submit(2.0, "job")
        sim.call_at(2.0, order.append, "pending")
        job.callbacks.append(lambda e: order.append("job"))
        sim.run()
        assert order == ["pending", "job"]
        # job pop + pending + completion (+ the disk's deferred dispatch)
        assert sim.event_count == (4 if on_disk else 3)

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_queue_full_job_fails_its_waiter(self, on_disk):
        sim = Simulator()
        cpu = ServiceCenter(sim, "cpu", capacity=1, queue_limit=0)
        disk = Disk(sim, "d", TIE_PARAMS, queue_limit=1)
        outcomes = []

        def client(tag):
            try:
                if on_disk:
                    yield disk.submit(DiskRequest(tag, 0, 0, 1, 8.0))
                else:
                    yield cpu.submit(1.0)
            except QueueFullError:
                outcomes.append((sim.now, tag, "dropped"))
            else:
                outcomes.append((sim.now, tag, "done"))

        for tag in range(3 if on_disk else 2):
            sim.process(client(tag))
        sim.run()
        if on_disk:  # one run in service, one queued, the third dropped
            assert outcomes == [(0.0, 2, "dropped"), (2.0, 0, "done"), (4.0, 1, "done")]
        else:
            assert outcomes == [(0.0, 1, "dropped"), (1.0, 0, "done")]

    @given(_mixes)
    @settings(max_examples=150, deadline=None)
    def test_drain_matches_step_reference(self, mix):
        """Random mixes: run() (in place) and a step() loop (never in
        place) give the same (now, tag) stream, count and final clock."""
        drained, drained_pushes = _replay(mix, drain=True)
        stepped, stepped_pushes = _replay(mix, drain=False)
        assert drained == stepped
        assert drained_pushes <= stepped_pushes

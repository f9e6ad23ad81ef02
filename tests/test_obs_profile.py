"""The phase-span profiler's edge paths.

``prof.wait`` returns the event a process yields; the phase span closes
itself from a callback on that event, just before the waiting process
resumes.  These pin the span each path records, the instant it closes
and the kernel events it costs: a queued service-center job, a failed
event, an event that had already fired, and a multi-run disk wait.
They also pin the spans that never close normally: one whose event
never fires, one closed after ``tracer.clear()`` and one finished
before its event fires.
"""

import json

import pytest

from repro.cluster.disk import FIFO, Disk, DiskRequest
from repro.obs import NULL_PROFILER, Profiler, Tracer
from repro.params import SimParams
from repro.sim import ServiceCenter, Simulator


def _profiled():
    sim = Simulator()
    tracer = Tracer()
    tracer.attach(sim)
    return sim, tracer, Profiler(tracer)


def _spans(tracer):
    return [(r["name"], r["node"], r["start"], r["end"], r.get("attrs"))
            for r in tracer.records]


def test_wait_on_queued_job_records_its_queueing_time():
    sim, tracer, prof = _profiled()
    cpu = ServiceCenter(sim, "cpu")
    closed_on_resume = []

    def first():
        yield prof.wait(None, 0, "cpu", cpu.submit(3.0))
        closed_on_resume.append(tracer.records[-1]["end"] == sim.now)

    def second():
        yield sim.timeout(1.0)
        # The server is busy until 3.0, so this job queues for 2 ms.
        yield prof.wait(None, 0, "cpu", cpu.submit(2.0))
        closed_on_resume.append(tracer.records[-1]["end"] == sim.now)

    sim.process(first())
    sim.process(second())
    sim.run()
    assert _spans(tracer) == [
        ("ph", 0, 0.0, 3.0, {"p": "cpu", "q": 0.0}),
        ("ph", 0, 1.0, 5.0, {"p": "cpu", "q": 2.0}),
    ]
    assert closed_on_resume == [True, True]
    assert not tracer.open_spans
    assert sim.event_count == 9


@pytest.mark.parametrize("already_failed", [False, True])
def test_wait_on_failed_event_closes_with_error_and_raises(already_failed):
    sim, tracer, prof = _profiled()
    ev = sim.event()
    seen = []

    def waiter():
        yield sim.timeout(4.0)
        try:
            yield prof.wait(None, 1, "fetch", ev, d=2)
        except ValueError as exc:
            seen.append((sim.now, str(exc), _spans(tracer)))

    sim.process(waiter())
    if already_failed:
        ev.fail(ValueError("lost"))
    else:
        sim.call_at(4.0, ev.fail, ValueError("lost"))
    sim.run()
    span = ("ph", 1, 4.0, 4.0, {"p": "fetch", "d": 2, "error": True})
    assert seen == [(4.0, "lost", [span])]
    assert sim.event_count == 5


def _wait_on_processed(prof):
    """Wait on a timeout that fired 3 ms before the wait; return what
    the process saw, the kernel steps the wait took and the run's
    event count."""
    sim = Simulator()
    if prof is not NULL_PROFILER:
        prof.tracer.attach(sim)
    ev = sim.timeout(2.0, value="v")
    got = []

    def waiter():
        yield sim.timeout(5.0)
        before = sim.event_count
        value = yield prof.wait(None, 0, "master_wait", ev)
        got.append((value, sim.now, sim.event_count - before))

    sim.process(waiter())
    sim.run()
    return got, sim.event_count


def test_wait_on_processed_event_resumes_one_step_later():
    tracer = Tracer()
    profiled = _wait_on_processed(Profiler(tracer))
    assert profiled == ([("v", 5.0, 1)], 5)
    assert _spans(tracer) == [("ph", 0, 5.0, 5.0, {"p": "master_wait"})]
    # The relay the profiler pushes is the one the kernel pushes unprofiled.
    assert _wait_on_processed(NULL_PROFILER) == profiled


def test_disk_wait_records_summed_seek_and_service():
    sim, tracer, prof = _profiled()
    params = SimParams()
    disk = Disk(sim, "disk", params, discipline=FIFO)
    runs = [
        disk.submit(DiskRequest(0, 0, 0, 4, 32.0)),
        disk.submit(DiskRequest(0, 0, 4, 4, 32.0)),  # head already there
        disk.submit(DiskRequest(5, 0, 0, 2, 12.5)),
    ]

    def reader():
        yield prof.disk_wait(None, 2, sim.all_of(runs), runs)

    sim.process(reader())
    sim.run()
    d = params.disk
    seek = d.seek_ms + d.metadata_seek_ms
    svc = [d.read_ms(32.0, contiguous=False), d.read_ms(32.0, contiguous=True),
           d.read_ms(12.5, contiguous=False)]
    assert _spans(tracer) == [("ph", 2, 0.0, svc[0] + svc[1] + svc[2], {
        "p": "disk", "n": 3,
        "seek": seek + 0.0 + seek,
        "svc": svc[0] + svc[1] + svc[2],
    })]
    assert sim.event_count == 12


def _phase_wait(prof, disk, parent, node, event):
    """``prof.wait`` or ``prof.disk_wait`` on ``event``, with one attr."""
    if disk:
        return prof.disk_wait(parent, node, event, (event,), blocks=4)
    return prof.wait(parent, node, "fetch", event, d=2)


@pytest.mark.parametrize("disk", [False, True])
def test_wait_on_event_that_never_fires_is_exported_unfinished(disk):
    sim, tracer, prof = _profiled()
    root = tracer.start("request", node=3)
    never = sim.event()

    def waiter():
        yield sim.timeout(2.0)
        yield prof.wait(root, 3, "cpu", sim.timeout(1.0))
        yield _phase_wait(prof, disk, root, 3, never)

    sim.process(waiter())
    sim.run()
    assert [(s.name, s.start, s.end) for s in tracer.open_spans] == [
        ("request", 0.0, None), ("ph", 3.0, None)]
    lines = [json.loads(line) for line in tracer.to_jsonl().splitlines()]
    assert [(r["name"], r.get("unfinished")) for r in lines] == [
        ("ph", None), ("request", True), ("ph", True)]
    attrs = {"p": "disk", "n": 1, "blocks": 4} if disk else {"p": "fetch", "d": 2}
    assert lines[-1] == {
        "trace": root.trace_id, "span": root.span_id + 2,
        "parent": root.span_id, "name": "ph", "node": 3,
        "start": 3.0, "end": None, "attrs": attrs, "unfinished": True,
    }
    assert list(tracer.open_spans[-1].attrs) == list(attrs)


@pytest.mark.parametrize("disk", [False, True])
def test_span_closed_after_clear_emits_without_raising(disk):
    sim, tracer, prof = _profiled()
    ev = sim.event()

    def waiter():
        yield _phase_wait(prof, disk, None, 1, ev)

    sim.process(waiter())
    sim.run()
    assert len(tracer.open_spans) == 1
    tracer.clear()
    assert tracer.open_spans == []
    ev.succeed()
    sim.run()
    assert tracer.open_spans == []
    attrs = ({"p": "disk", "n": 1, "blocks": 4, "seek": 0.0, "svc": 0.0}
             if disk else {"p": "fetch", "d": 2})
    assert _spans(tracer) == [("ph", 1, 0.0, 0.0, attrs)]


@pytest.mark.parametrize("disk", [False, True])
def test_phase_span_finished_before_its_event_fires_raises(disk):
    sim, tracer, prof = _profiled()
    ev = sim.event()

    def waiter():
        yield _phase_wait(prof, disk, None, 0, ev)

    sim.process(waiter())
    sim.run()
    (span,) = tracer.open_spans
    span.finish()
    ev.succeed()
    with pytest.raises(RuntimeError, match=r"span 1 \(ph\) finished twice"):
        sim.run()
    assert len(tracer.records) == 1

"""Golden-trace regression tests.

A small fixed-seed Figure-2-style experiment is run for each of the four
server variants with tracing on; the trace digest, span count and full
metrics snapshot are compared byte-for-byte against fingerprints stored
under ``tests/golden/``.  Any unintended behavioral drift in the cache
algorithms — a changed eviction choice, an extra peer hop, a perturbed
event ordering — changes the trace and fails the comparison.

To refresh after an *intended* behavior change::

    REPRO_REFRESH_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_trace.py

then review and commit the diff under ``tests/golden/``.

The workload is built directly from a scaled trace spec (not via
``repro.experiments.defaults``), so the fingerprints are independent of
the ``REPRO_*`` environment knobs.
"""

import gc
import json
import os
from pathlib import Path

import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.obs import Observability
from repro.sim import Simulator
from repro.traces import datasets

GOLDEN_DIR = Path(__file__).parent / "golden"
#: Kernel event count and final clock of each system's golden run.
EVENTS_FILE = GOLDEN_DIR / "events.json"
#: Trace digest and span count of each system's profiled golden run.
PROFILED_FILE = GOLDEN_DIR / "profiled.json"

#: The four Figure-2 curves.
SYSTEMS = ["cc-basic", "cc-sched", "cc-kmc", "press"]


def _workload():
    # ~380 files / 400 requests of rutgers-shaped traffic: big enough to
    # exercise peer fetches, disk runs, evictions and writebacks, small
    # enough to run all four systems in a few seconds.
    return datasets.scaled("rutgers", 0.01, num_requests=400)


def _config(system, workload=None):
    return ExperimentConfig(
        system=system,
        trace=workload if workload is not None else _workload(),
        num_nodes=4,
        # 64 blocks per node versus an ~8 MB file set: eviction-heavy.
        mem_mb_per_node=0.5,
        num_clients=8,
        seed=0,
    )


def _run(system, workload=None, profile=False):
    obs = Observability(trace=True, profile=profile)
    run_experiment(_config(system, workload), obs=obs)
    return obs


def _fingerprint(obs):
    return {
        "trace_digest": obs.tracer.digest(),
        "trace_spans": len(obs.tracer.records),
        "metrics": obs.registry.snapshot(),
    }


def _serialize(fingerprint):
    return json.dumps(fingerprint, indent=2, sort_keys=True, default=float) + "\n"


@pytest.mark.parametrize("system", SYSTEMS)
def test_golden(system):
    path = GOLDEN_DIR / f"{system}.json"
    current = _serialize(_fingerprint(_run(system)))
    if os.environ.get("REPRO_REFRESH_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(current)
    assert path.exists(), (
        f"golden file {path} missing; generate it with "
        "REPRO_REFRESH_GOLDEN=1 and commit the result"
    )
    golden = path.read_text()
    assert current == golden, (
        f"{system} drifted from its golden fingerprint; if the change is "
        "intended, refresh with REPRO_REFRESH_GOLDEN=1 and review the diff"
    )


def test_golden_profiled():
    """The phase spans of a profiled run, in order, with their stamps.

    The fingerprints above come from tracing-only runs, which hold no
    phase span.  This pins the trace digest and span count of an
    ``Observability(profile=True)`` run, so a profiler edit that moves a
    phase span, or changes its ``q``, ``seek`` or ``svc``, fails here.
    """
    current = {}
    for system in SYSTEMS:
        tracer = _run(system, profile=True).tracer
        current[system] = {"trace_digest": tracer.digest(),
                           "trace_spans": len(tracer.records)}
    text = json.dumps(current, indent=2, sort_keys=True) + "\n"
    if os.environ.get("REPRO_REFRESH_GOLDEN"):
        PROFILED_FILE.write_text(text)
    assert text == PROFILED_FILE.read_text(), (
        "profiled traces drifted; if intended, refresh with "
        "REPRO_REFRESH_GOLDEN=1 and review the diff"
    )


def test_golden_event_counts(monkeypatch):
    """The kernel's event count and final clock for every golden run.

    Trace digests and metrics do not see how many kernel events a run
    took, so a kernel edit that adds or drops an event can pass the
    fingerprints.  The end-to-end benchmark digests the count; this pins
    it in tier 1, read the same way: from ``Simulator.run`` as it returns.
    """
    seen: dict = {}
    run = Simulator.run

    def counted_run(self, *args, **kwargs):
        try:
            return run(self, *args, **kwargs)
        finally:
            seen.update(events=self.event_count, now=self.now)

    monkeypatch.setattr(Simulator, "run", counted_run)
    current = {}
    for system in SYSTEMS:
        _run(system)
        current[system] = dict(seen)
    text = json.dumps(current, indent=2, sort_keys=True) + "\n"
    if os.environ.get("REPRO_REFRESH_GOLDEN"):
        EVENTS_FILE.write_text(text)
    assert text == EVENTS_FILE.read_text(), (
        "kernel event counts drifted; if intended, refresh with "
        "REPRO_REFRESH_GOLDEN=1 and review the diff"
    )


def test_records_read_mid_run_match_a_fresh_run(monkeypatch):
    """``records`` read while a profiled run is under way, and again
    after it, equal a fresh run's records: each read adds the spans
    finished since the last one to the same list."""
    obs = Observability(profile=True)
    reads = []
    run = Simulator.run

    def run_with_a_read(self, *args, **kwargs):
        run(self, until=400.0)  # the golden cc-kmc run ends near 813 ms
        reads.append((obs.tracer.records, len(obs.tracer.records)))
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run", run_with_a_read)
    run_experiment(_config("cc-kmc"), obs=obs)
    monkeypatch.undo()
    fresh = _run("cc-kmc", profile=True).tracer
    [(mid, spans_mid)] = reads
    assert 0 < spans_mid < len(fresh.records)
    assert obs.tracer.records is mid
    assert obs.tracer.records == fresh.records
    assert obs.tracer.to_jsonl() == fresh.to_jsonl()


def test_finished_spans_hold_no_gc_tracked_objects():
    """A finished span leaves nothing the cyclic collector tracks, so GC
    passes over a profiled run do not grow with its span count.

    Two profiled runs that differ by thousands of finished spans leave
    the same number of tracked objects behind, to within 1% of the span
    difference (a dict per record would add about one per span).
    """

    def tracked_and_spans(requests):
        workload = datasets.scaled("rutgers", 0.01, num_requests=requests)
        obs = _run("cc-kmc", workload, profile=True)
        gc.collect()
        tracked = len(gc.get_objects())
        return tracked, len(obs.tracer.records)

    small, small_spans = tracked_and_spans(400)
    large, large_spans = tracked_and_spans(1200)
    more_spans = large_spans - small_spans
    assert more_spans > 10_000
    assert abs(large - small) < 0.01 * more_spans


def test_run_twice_byte_identical():
    """The determinism contract behind the golden files: same seed, same
    bytes — for both the trace JSONL and the metrics JSON."""
    workload = _workload()
    first = _run("cc-kmc", workload)
    second = _run("cc-kmc", workload)
    assert first.tracer.to_jsonl() == second.tracer.to_jsonl()
    assert first.registry.to_json() == second.registry.to_json()


@pytest.mark.parametrize("system", SYSTEMS)
def test_zero_fault_plan_reproduces_golden(system):
    """Fault-injection neutrality: an *explicit* empty FaultPlan leaves
    the kernel event stream — and therefore every golden fingerprint —
    byte-for-byte unchanged.  This is the contract that lets the chaos
    subsystem live permanently in the hot paths."""
    from repro.sim.faults import FaultPlan

    path = GOLDEN_DIR / f"{system}.json"
    assert path.exists(), "golden files must exist before this check"
    cfg = ExperimentConfig(
        system=system,
        trace=_workload(),
        num_nodes=4,
        mem_mb_per_node=0.5,
        num_clients=8,
        seed=0,
        faults=FaultPlan.none(),
    )
    obs = Observability(trace=True)
    run_experiment(cfg, obs=obs)
    assert _serialize(_fingerprint(obs)) == path.read_text()


def test_trace_disabled_run_matches_traced_run():
    """Tracing is pure observation: the metrics a run produces are the
    same whether or not the tracer is recording."""
    workload = _workload()
    traced = _run("cc-basic", workload)

    cfg = ExperimentConfig(
        system="cc-basic", trace=workload, num_nodes=4,
        mem_mb_per_node=0.5, num_clients=8, seed=0,
    )
    silent = Observability(trace=False)
    run_experiment(cfg, obs=silent)
    assert silent.registry.to_json() == traced.registry.to_json()

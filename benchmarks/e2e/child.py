"""One benchmark child: set up and run one workload, print one JSON line.

``run.py`` starts a fresh interpreter per measurement so that imports,
trace synthesis and system build are paid (and timed) on every run, and
so that ``ru_maxrss`` is the peak of exactly one workload::

    python benchmarks/e2e/child.py --workload kmc-remote --seed 14 \\
        --requests 24000 --mode run

The child runs in one host thread; the simulated clients are coroutines
in it.  Layers are only ever observed from outside: a timer around
``Simulator.run`` always, and with ``--mode traced`` counting wrappers on
public entry points plus ``cProfile`` over trace synthesis, build and
run.  Nothing in ``repro`` is modified.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import fnmatch
import functools
import hashlib
import heapq
import importlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent.parent
SRC = ROOT / "src"

#: Workload scale shared by every workload (Rutgers, scaled 0.02).
TRACE = "rutgers"
SCALE = 0.02
NUM_NODES = 8
NUM_CLIENTS = 96
DEFAULT_REQUESTS = 24_000
#: Default request-order seed (the same number as the Rutgers spec's).
DEFAULT_SEED = 14
#: Same warm-up share as ``ExperimentConfig`` and ``ClosedLoopDriver``.
WARMUP_FRAC = 0.25
WRITE_FRAC = 0.3
#: Period of the host-speed sampler (see RefClock).
SAMPLE_S = 0.005
#: Host seconds ``speed_probe`` takes at the reference speed, close to
#: its time on an idle core of the 2-core VM the benchmark was built on.
PROBE_REF_S = 40e-6

#: name -> (system, paper MB per node, write share, observability on).
#: Memory is scaled by SCALE like every other experiment in the repo.
WORKLOADS: dict[str, tuple[str, float, float, bool]] = {
    "kmc-remote": ("cc-kmc", 64, 0.0, False),
    "press-remote": ("press", 64, 0.0, False),
    "kmc-disk": ("cc-kmc", 4, 0.0, False),
    "kmc-writes": ("cc-kmc", 64, WRITE_FRAC, False),
    "kmc-profiled": ("cc-kmc", 64, 0.0, True),
}

#: Layer -> module patterns, relative to ``src/repro``.  Every file of
#: the package matches exactly one pattern (the tests check this).
LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("sim.engine", ("sim/engine.py",)),
    ("sim.servicecenter", ("sim/servicecenter.py",)),
    ("sim.stats", ("sim/stats.py",)),
    ("cluster.disk", ("cluster/disk.py",)),
    ("cluster.network", ("cluster/network.py",)),
    ("cluster", ("cluster/__init__.py", "cluster/cluster.py",
                 "cluster/node.py", "cluster/router.py")),
    ("core", ("core/*",)),
    ("cache", ("cache/*",)),
    ("press", ("press/*",)),
    ("web", ("web/*",)),
    ("obs", ("obs/*",)),
    ("traces", ("traces/*",)),
    ("experiments", ("experiments/*",)),
    ("repro.other", ("__init__.py", "params.py", "sim/__init__.py",
                     "sim/rng.py", "sim/faults.py", "sim/theory.py",
                     "analytic/*", "bench/*", "lint/*")),
)
#: Interpreter builtins and every non-repro Python file.
STDLIB = "stdlib"
LAYER_NAMES = tuple(name for name, _ in LAYERS) + (STDLIB,)

#: (count name, module, class, method) for the counting wrappers.  A
#: wrapper counts calls, so a generator counts once, not once per resume.
COUNTED: tuple[tuple[str, str, str, str], ...] = (
    ("sim.engine.processes", "repro.sim.engine", "Simulator", "process"),
    ("sim.engine.callbacks", "repro.sim.engine", "Simulator", "call_after"),
    ("sim.engine.callbacks", "repro.sim.engine", "Simulator", "call_at"),
    ("cluster.disk.submits", "repro.cluster.disk", "Disk", "submit"),
    ("cluster.network.transfers", "repro.cluster.network", "Network", "transfer"),
    ("core.reads", "repro.core.middleware", "CoopCacheLayer", "read"),
    ("core.writes", "repro.core.middleware", "CoopCacheLayer", "write"),
    ("cache.dir_lookups", "repro.cache.directory", "GlobalDirectory", "lookup"),
    ("press.handles", "repro.press.server", "PressServer", "handle"),
    ("obs.span_starts", "repro.obs.tracing", "Tracer", "start"),
    ("obs.span_starts", "repro.obs.tracing", "NullTracer", "start"),
    ("obs.profiler_waits", "repro.obs.profile", "Profiler", "wait"),
    ("obs.profiler_waits", "repro.obs.profile", "NullProfiler", "wait"),
)
#: Submits that found a free server; reported as a share of all submits.
IDLE_SUBMITS = "sim.servicecenter.idle_submits"
COUNT_NAMES = tuple(sorted({c[0] for c in COUNTED} | {
    "sim.servicecenter.submits", IDLE_SUBMITS}))

#: "run" times one untraced run; "traced" adds the counters and cProfile.
MODES = ("run", "traced")


def layer_of(rel: str) -> str:
    """The layer of ``src/repro/<rel>``; a file missing from LAYERS is an
    error, so its time never lands silently in the wrong layer."""
    for name, patterns in LAYERS:
        if any(fnmatch.fnmatchcase(rel, p) for p in patterns):
            return name
    raise LookupError(f"src/repro/{rel} is in no layer of child.LAYERS")


def _frame_layer(filename: str, funcname: str) -> str | None:
    """Layer of one cProfile entry; None for the benchmark's own frames."""
    if filename == "~":  # builtins carry no file
        return "sim.engine" if "_heapq." in funcname else STDLIB
    path = Path(filename).resolve()
    if path.is_relative_to(BENCH_DIR):
        return None
    if path.is_relative_to(SRC / "repro"):
        return layer_of(path.relative_to(SRC / "repro").as_posix())
    return STDLIB


def self_times(prof: cProfile.Profile) -> dict[str, float]:
    """Summed tottime per layer, leaving out the benchmark's own frames."""
    prof.create_stats()
    layers = dict.fromkeys(LAYER_NAMES, 0.0)
    for (filename, _line, funcname), stat in prof.stats.items():  # type: ignore[attr-defined]
        layer = _frame_layer(filename, funcname)
        if layer is not None:
            layers[layer] += stat[2]
    return layers


def _install_counters(counts: dict[str, int]) -> None:
    """Wrap the COUNTED entry points (and ServiceCenter.submit) in place.

    A missing entry point crashes the child, and the run counts as failed:
    a count that silently read 0 would look like work eliminated.
    """

    def counting(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, module, cls_name, method in COUNTED:
        cls = getattr(importlib.import_module(module), cls_name)
        setattr(cls, method, counting(name, getattr(cls, method)))

    from repro.sim.servicecenter import ServiceCenter

    submit = ServiceCenter.submit

    @functools.wraps(submit)
    def counted_submit(self, *args, **kwargs):
        counts["sim.servicecenter.submits"] += 1
        if self.load < self.capacity:  # a server is free, nothing queued
            counts[IDLE_SUBMITS] += 1
        return submit(self, *args, **kwargs)

    ServiceCenter.submit = counted_submit  # type: ignore[method-assign]


def speed_probe() -> None:
    """A fixed slice of the interpreter work the simulator does most (heap
    pushes and pops, dict stores and deletes), about 40 us on an idle core.
    How long it takes says how fast the host runs Python at that moment."""
    heap: list[tuple[int, int]] = []
    seen: dict[int, int] = {}
    for i in range(64):
        key = i * 7919 % 1009
        heapq.heappush(heap, (key, i))
        seen[key] = i
    while heap:
        key, _ = heapq.heappop(heap)
        del seen[key]


def ref_seconds(samples: list[tuple[float, float]], a: float, b: float) -> float:
    """Reference seconds between host times ``a`` and ``b``.

    ``samples`` are (host time, probe seconds) pairs in time order.  The
    stretch from the end of one probe to the start of the next counts its
    host seconds times PROBE_REF_S over the mean time of those two probes;
    the probes themselves do not count.
    """
    total = 0.0
    for (t0, p0), (t1, p1) in zip(samples, samples[1:]):
        lo, hi = max(a, t0 + p0), min(b, t1)
        if hi > lo:
            total += (hi - lo) * 2.0 * PROBE_REF_S / (p0 + p1)
    return total


class RefClock:
    """Host time measured at a fixed reference speed of the host.

    On a shared host the same Python code runs up to 1.7x slower for
    seconds to minutes at a time, as other tenants load the machine.  The
    clock runs ``speed_probe`` every SAMPLE_S seconds from a SIGALRM
    handler, outside the code being timed, and ``seconds`` scales every
    stretch between two probes by how slow the probes around it ran (see
    ``ref_seconds``).  A change that makes the simulator faster takes
    fewer host seconds at the same probe speed, so it shows in full.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._running = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self._running = True
        self._sample()

    def stop(self) -> None:
        """Disarm the timer and take the closing sample (no-op if not started)."""
        if self._running:
            self._running = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._sample()

    def _sample(self, _signum: int | None = None, _frame: object = None) -> None:
        t = time.perf_counter()  # simlint: disable=SL02 -- host timing is the measurement
        speed_probe()
        self.samples.append((t, time.perf_counter() - t))  # simlint: disable=SL02 -- host timing is the measurement
        if self._running:  # one-shot, re-armed here: no alarm lands inside a sample
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S)

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds between host times ``a`` and ``b``."""
        return ref_seconds(self.samples, a, b)


def _install_run_timer(marks: dict, clock: RefClock) -> None:
    """Time the (single) ``Simulator.run`` call and keep its event count;
    the clock stops when the run ends."""
    from repro.sim.engine import Simulator

    run = Simulator.run

    @functools.wraps(run)
    def timed_run(self, *args, **kwargs):
        marks["run_enter"] = time.perf_counter()  # simlint: disable=SL02 -- host timing is the measurement
        try:
            return run(self, *args, **kwargs)
        finally:
            marks["run_exit"] = time.perf_counter()  # simlint: disable=SL02 -- host timing is the measurement
            marks["events"] = self.event_count
            clock.stop()

    Simulator.run = timed_run  # type: ignore[method-assign]


def _capture_layers(layers: list) -> None:
    """Keep every CoopCacheLayer built, for the post-run invariant check."""
    from repro.core.middleware import CoopCacheLayer

    init = CoopCacheLayer.__init__

    @functools.wraps(init)
    def capturing_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        layers.append(self)

    CoopCacheLayer.__init__ = capturing_init  # type: ignore[method-assign]


def make_trace(seed: int, requests: int):
    """Rutgers at SCALE: the spec's own file set and per-file request
    counts, in a request order drawn from ``seed``.

    The seed only reorders an i.i.d. request stream, so every seed offers
    the same work; a fresh file set per seed would move events/request
    by ~5% on kmc-disk and hide host-speed changes behind it.
    """
    from repro.sim.rng import stream
    from repro.traces.datasets import scaled
    from repro.traces.model import Trace

    base = scaled(TRACE, SCALE, num_requests=requests)
    order = stream(seed, "e2e", "order").permutation(base.num_requests)
    return Trace(spec=base.spec, sizes_kb=base.sizes_kb, requests=base.requests[order])


class ReadWriteService:
    """GET service where a pre-drawn share of requests are whole-file PUTs.

    Built from public APIs the way ablation A7 builds its service.  The
    i-th call to :meth:`handle` is a write iff ``writes[i]``; the mask is
    drawn from the seed before the run, and the simulation is
    deterministic, so every run sees the same requests as writes.
    """

    def __init__(self, layer, web, writes) -> None:
        self.layer = layer
        self.web = web
        self.writes = writes
        self.calls = 0

    def handle(self, node, file_id):
        """One GET, or a PUT of the whole file acknowledged with a small reply."""
        i = self.calls
        self.calls += 1
        if not self.writes[i]:
            return (yield from self.web.handle(node, file_id))
        params = self.layer.params
        yield node.cpu.submit(params.cpu.parse_ms)
        yield from self.layer.write(node, file_id)
        yield node.nic.submit(params.network.transfer_ms(0.3))  # small ACK, as in A7
        return "write"

    def reset_stats(self) -> None:
        """Discard warm-up counters."""
        self.web.reset_stats()


def _run_writes(trace, seed: int, mem_mb: float, write_frac: float):
    from repro.cache.block import FileLayout
    from repro.cache.directory import HomeMap
    from repro.cluster.cluster import Cluster
    from repro.core.api import blocks_for_mb
    from repro.core.config import variant
    from repro.core.middleware import CoopCacheLayer
    from repro.params import DEFAULT_PARAMS
    from repro.sim.engine import Simulator
    from repro.sim.rng import stream
    from repro.web.client import ClosedLoopDriver
    from repro.web.server import CoopCacheWebServer

    config = variant("cc-kmc").with_overrides(write_policy="write-back")
    sim = Simulator()
    cluster = Cluster(sim, DEFAULT_PARAMS, NUM_NODES,
                      disk_discipline=config.disk_discipline)
    layout = FileLayout(trace.sizes_kb, DEFAULT_PARAMS)
    homes = HomeMap(layout.num_files, NUM_NODES)
    layer = CoopCacheLayer(cluster, layout, homes, blocks_for_mb(mem_mb),
                           config=config)
    web = CoopCacheWebServer(layer)
    writes = stream(seed, "e2e", "writes").random(trace.num_requests) < write_frac
    service = ReadWriteService(layer, web, writes)
    driver = ClosedLoopDriver(sim, cluster, service, trace,
                              num_clients=NUM_CLIENTS, warmup_frac=WARMUP_FRAC)
    workload = driver.run()
    return workload, layer.hit_rates(), layer.counters.as_dict()


def run_workload(name: str, trace, seed: int):
    """Build and run ``name`` over ``trace``: (WorkloadResult, hits, counters)."""
    system, paper_mb, write_frac, observed = WORKLOADS[name]
    mem_mb = paper_mb * SCALE
    if write_frac:
        return _run_writes(trace, seed, mem_mb, write_frac)
    from repro.experiments.runner import ExperimentConfig, run_experiment
    from repro.obs import Observability

    obs = Observability(profile=True, cachestats=True) if observed else None
    cfg = ExperimentConfig(system=system, trace=trace, num_nodes=NUM_NODES,
                           mem_mb_per_node=mem_mb, num_clients=NUM_CLIENTS,
                           warmup_frac=WARMUP_FRAC)
    res = run_experiment(cfg, obs=obs)
    return res.workload, res.hit_rates, res.counters


def digest(workload, hit_rates: dict, counters: dict, events: int) -> str:
    """sha256 over every simulated output the run produced."""
    payload = {
        "workload": dataclasses.asdict(workload),
        "hit_rates": hit_rates,
        "counters": counters,
        "events": events,
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def measure(name: str, seed: int, requests: int, mode: str, t0: float,
            clock: RefClock) -> dict:
    """Set up and run one workload in ``mode`` (one of MODES); ``t0`` is
    the child's start time on the host clock.

    Spans are reported in host seconds (``host_s``) and, when ``clock``
    was started, in reference seconds (``ref_s``).
    """
    sys.path.insert(0, str(SRC))
    import repro.experiments.runner  # noqa: F401  (import cost is part of setup_s)
    import repro.obs  # noqa: F401

    t_import = time.perf_counter()  # simlint: disable=SL02 -- host timing is the measurement
    traced = mode == "traced"
    marks: dict = {}
    counts = dict.fromkeys(COUNT_NAMES, 0)
    layers: list = []
    if traced:
        _install_counters(counts)
    _install_run_timer(marks, clock)
    _capture_layers(layers)
    prof = cProfile.Profile() if traced else None
    if prof is not None:
        prof.enable()
    trace = make_trace(seed, requests)
    t_trace = time.perf_counter()  # simlint: disable=SL02 -- host timing is the measurement
    workload, hit_rates, counters = run_workload(name, trace, seed)
    if prof is not None:
        prof.disable()
    counts_at_end = dict(counts)  # before check_invariants adds lookups
    spans = {
        "setup_s": (t0, marks["run_enter"]),
        "import_s": (t0, t_import),
        "synth_s": (t_import, t_trace),
        "build_s": (t_trace, marks["run_enter"]),
        "run_s": (marks["run_enter"], marks["run_exit"]),
    }
    errors: list[str] = []
    expected = trace.num_requests - int(trace.num_requests * WARMUP_FRAC)
    completed = workload.measured_requests + workload.failed_requests
    if completed != expected:
        errors.append(f"{completed} of {expected} measured requests completed")
    if workload.failed_requests:
        errors.append(f"{workload.failed_requests} requests failed")
    for layer in layers:
        try:
            layer.check_invariants()
        except AssertionError as exc:
            errors.append(f"invariant: {exc}")

    per_req = 1.0 / trace.num_requests
    exact = {
        "sim.engine.events_per_req": marks["events"] * per_req,
        "core.hit_local": hit_rates["local"],
        "core.hit_remote": hit_rates["remote"],
        "core.hit_disk": hit_rates["disk"],
        "cluster.disk.util": workload.utilization["disk"],
        "model.throughput_rps": workload.throughput_rps,
    }
    if traced:
        exact.update({f"{c}_per_req": n * per_req for c, n in counts_at_end.items()
                      if c != IDLE_SUBMITS})
        exact["sim.servicecenter.idle_submit_frac"] = (
            counts_at_end[IDLE_SUBMITS] / max(1, counts_at_end["sim.servicecenter.submits"]))
    out: dict = {
        "workload": name,
        "seed": seed,
        "requests": trace.num_requests,
        "mode": mode,
        "errors": errors,
        "host_s": {k: b - a for k, (a, b) in spans.items()},
        "ref_s": {k: clock.seconds(a, b) for k, (a, b) in spans.items()}
        if clock.samples else {},
        "digest": digest(workload, hit_rates, counters, marks["events"]),
        "events": marks["events"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exact": exact,
    }
    if traced:
        out["self_time"] = self_times(prof)
        out["counts"] = counts_at_end
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--requests", type=int, default=DEFAULT_REQUESTS)
    ap.add_argument("--mode", choices=MODES, default="run")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    clock = RefClock()
    if args.mode != "traced":  # cProfile would slow the probes with the code
        clock.start()
    t0 = time.perf_counter()  # simlint: disable=SL02 -- setup_s starts here, before repro is imported
    out = measure(args.workload, args.seed, args.requests, args.mode, t0, clock)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

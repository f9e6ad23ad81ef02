"""Tests for the trace analyzer (repro.obs.analyze and friends).

The central contract: for a profiled run, every request's critical-path
phase decomposition sums *exactly* (to float tolerance) to the measured
response time — no unexplained residual — and aggregating over measured
requests reproduces the workload's mean response time.
"""

import json

import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.obs import Observability
from repro.obs.analyze import (
    PHASE_ORDER,
    Attribution,
    RequestProfile,
    attribute,
    binding_resource,
    build_trees,
    decompose_request,
    load_jsonl,
    request_roots,
)
from repro.obs.export import to_chrome_trace
from repro.obs.reports import (
    format_span_tree,
    render_profile_report,
    render_top_requests,
)
from repro.obs.timeseries import build_timeseries
from repro.sim.faults import FaultPlan
from repro.traces import datasets

SYSTEMS = ["cc-basic", "cc-sched", "cc-kmc", "press"]


def _workload():
    return datasets.scaled("rutgers", 0.01, num_requests=400)


def _profiled_run(system, workload=None):
    cfg = ExperimentConfig(
        system=system,
        trace=workload if workload is not None else _workload(),
        num_nodes=4,
        mem_mb_per_node=0.5,
        num_clients=8,
        seed=0,
    )
    obs = Observability(profile=True)
    result = run_experiment(cfg, obs=obs)
    return obs, result


@pytest.fixture(scope="module")
def kmc_run():
    return _profiled_run("cc-kmc")


def _tolerance(dur_ms):
    # Accumulated float64 error over a span tree is far below this.
    return max(1e-6, 1e-9 * dur_ms)


class TestAttribution:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_every_request_fully_attributed(self, system):
        obs, _result = _profiled_run(system)
        roots, _ = build_trees(obs.tracer.records)
        reqs = request_roots(roots)
        assert reqs, "profiled run produced no request roots"
        for root in reqs:
            profile = decompose_request(root)
            assert abs(profile.residual) < _tolerance(profile.dur), (
                f"{system}: trace {profile.trace_id} has unexplained "
                f"residual {profile.residual:.9f} ms of {profile.dur:.4f}"
            )

    def test_mean_matches_workload_measurement(self, kmc_run):
        obs, result = kmc_run
        attr = attribute(obs.tracer.records, measured_only=True)
        assert attr.count == sum(result.workload.requests_by_class.values())
        assert attr.mean_response_ms == pytest.approx(
            result.workload.mean_response_ms, rel=1e-9
        )
        # Phase means sum back to the total (the report's "total" row).
        assert sum(attr.phase_means().values()) + attr.mean_residual_ms == (
            pytest.approx(attr.mean_response_ms, rel=1e-9)
        )

    def test_phases_are_canonical(self, kmc_run):
        obs, _ = kmc_run
        attr = attribute(obs.tracer.records)
        for profile in attr.requests:
            assert set(profile.phases) <= set(PHASE_ORDER)
            assert all(v >= -1e-9 for v in profile.phases.values())

    def test_by_class_partitions_requests(self, kmc_run):
        obs, result = kmc_run
        attr = attribute(obs.tracer.records, measured_only=True)
        per_class = attr.by_class()
        assert sum(sub.count for sub in per_class.values()) == attr.count
        for cls, sub in per_class.items():
            assert sub.mean_response_ms == pytest.approx(
                result.workload.response_by_class_ms[cls], rel=1e-9
            )

    def test_measured_only_excludes_warmup(self, kmc_run):
        obs, result = kmc_run
        every = attribute(obs.tracer.records, measured_only=False)
        measured = attribute(obs.tracer.records, measured_only=True)
        assert every.count == 400
        assert measured.count < every.count

    def test_load_jsonl_roundtrip(self, kmc_run, tmp_path):
        obs, _ = kmc_run
        path = tmp_path / "trace.jsonl"
        obs.tracer.dump_jsonl(path)
        records = load_jsonl(path)
        assert len(records) == len(obs.tracer.records)
        attr_disk = attribute(records)
        attr_mem = attribute(obs.tracer.records)
        assert attr_disk.mean_response_ms == attr_mem.mean_response_ms


def _rec(span, parent, name, start, end, node=None, **attrs):
    return {"trace": 1, "span": span, "parent": parent, "name": name,
            "node": node, "start": start, "end": end, "attrs": attrs}


def _ph(span, parent, start, end, **attrs):
    return _rec(span, parent, "ph", start, end, node=0, **attrs)


#: Hand-built span trees (binary-exact times) -> exact nonzero buckets.
PHASE_RULE_CASES = {
    "cpu-nic-bus-queue-split": (
        [_rec(1, None, "request", 0.0, 6.0),
         _ph(2, 1, 0.0, 2.0, p="cpu", q=0.5),
         _ph(3, 1, 2.0, 4.0, p="nic", q=1.25),
         _ph(4, 1, 4.0, 6.0, p="bus", q=0.25)],
        {"cpu.queue": 0.5, "cpu.service": 1.5, "nic.queue": 1.25,
         "nic.service": 0.75, "bus.queue": 0.25, "bus.service": 1.75},
    ),
    "disk-svc-seek-split": (
        [_rec(1, None, "request", 0.0, 8.0),
         _ph(2, 1, 0.0, 8.0, p="disk", svc=4.0, seek=1.5)],
        {"disk.queue": 4.0, "disk.seek": 1.5, "disk.transfer": 2.5},
    ),
    "router-and-wire": (
        [_rec(1, None, "request", 0.0, 3.0),
         _ph(2, 1, 0.0, 0.5, p="router"),
         _ph(3, 1, 0.5, 3.0, p="wire")],
        {"router": 0.5, "wire": 2.5},
    ),
    "named-waits": (
        [_rec(1, None, "request", 0.0, 10.0),
         _ph(2, 1, 0.0, 1.0, p="master_wait"),
         _ph(3, 1, 1.0, 3.0, p="coalesce_wait"),
         _ph(4, 1, 3.0, 6.0, p="fault_detect"),
         _ph(5, 1, 6.0, 10.0, p="retry_wait")],
        {"master.wait": 1.0, "coalesce.wait": 2.0, "fault.detect": 3.0,
         "retry.backoff": 4.0},
    ),
    "unknown-phase-is-other": (
        [_rec(1, None, "request", 0.0, 2.0),
         _ph(2, 1, 0.0, 2.0, p="mystery")],
        {"other": 2.0},
    ),
    "fetch-join-gap-is-coalesce-wait-even-with-peers": (
        [_rec(1, None, "request", 0.0, 8.0),
         _ph(2, 1, 0.0, 8.0, p="fetch", j=1, pe=1),
         _ph(3, 1, 6.0, 8.0, p="nic", q=0.5)],
        {"coalesce.wait": 6.0, "nic.queue": 0.5, "nic.service": 1.5},
    ),
    "fetch-peer-gap-is-peer-wait": (
        # The chain that bounded the wait is a sub-span, walked serially.
        [_rec(1, None, "request", 0.0, 8.0),
         _ph(2, 1, 0.0, 8.0, p="fetch", pe=1),
         _rec(3, 1, "peer_fetch", 3.0, 8.0, node=1),
         _ph(4, 3, 3.0, 4.0, p="wire"),
         _ph(5, 3, 4.0, 8.0, p="cpu", q=1.0)],
        {"peer.wait": 3.0, "wire": 1.0, "cpu.queue": 1.0, "cpu.service": 3.0},
    ),
    "fetch-gap-defaults-to-disk-queue": (
        # Backward walk: disk [3, 8], then master_wait [1, 3]; the
        # parallel disk read [0, 6] never bounded the wait, and [0, 1]
        # is uncovered.
        [_rec(1, None, "request", 0.0, 8.0),
         _ph(2, 1, 0.0, 8.0, p="fetch"),
         _ph(3, 1, 0.0, 6.0, p="disk", svc=2.0, seek=0.5),
         _ph(4, 1, 1.0, 3.0, p="master_wait"),
         _ph(5, 1, 3.0, 8.0, p="disk", svc=4.0, seek=1.0)],
        {"disk.queue": 2.0, "master.wait": 2.0, "disk.seek": 1.0,
         "disk.transfer": 3.0},
    ),
    "nested-span-and-gaps": (
        # Gaps [0, 2] and [8, 10] in the root and [7, 8] in the sub-span.
        [_rec(1, None, "request", 0.0, 10.0),
         _rec(2, 1, "serve", 2.0, 8.0, node=1),
         _ph(3, 2, 2.0, 4.0, p="cpu", q=0.5),
         _ph(4, 2, 4.0, 7.0, p="wire")],
        {"other": 5.0, "cpu.queue": 0.5, "cpu.service": 1.5, "wire": 3.0},
    ),
}


class TestPhaseRules:
    @pytest.mark.parametrize("records, expected",
                             list(PHASE_RULE_CASES.values()),
                             ids=list(PHASE_RULE_CASES))
    def test_buckets(self, records, expected):
        roots, _ = build_trees(records)
        profile = decompose_request(roots[0])
        assert {k: v for k, v in profile.phases.items() if v} == expected
        assert profile.residual == 0.0


class TestLeftToRightSums:
    """From Python 3.12 on, builtin ``sum()`` compensates float rounding
    (over these three values it gives 0.3333333333333334, not 1/3); the
    analysis adds left to right, so its numbers do not depend on the
    interpreter."""

    VALUES = (1.0, 1e-16, 1e-16)

    def test_means_over_three_requests(self):
        attr = Attribution([
            RequestProfile(trace_id=i, root_name="client", node=0,
                           cls="local", start=0.0, dur=dur)
            for i, dur in enumerate(self.VALUES)
        ])
        assert attr.mean_response_ms == 1.0 / 3
        # No phases: each residual is the whole duration.
        assert attr.mean_residual_ms == 1.0 / 3

    def test_residual_of_one_request(self):
        profile = RequestProfile(
            trace_id=0, root_name="client", node=0, cls="local", start=0.0,
            dur=1.0, phases=dict(zip("abc", self.VALUES)),
        )
        assert profile.residual == 0.0

    def test_binding_resource_mean(self):
        info = binding_resource({"collected": {
            f"node{i}.disk": {"utilization": u}
            for i, u in enumerate(self.VALUES)
        }})
        assert info["mean"] == 1.0 / 3


class TestBindingResource:
    def test_disk_binds_at_small_memory(self, kmc_run):
        obs, _ = kmc_run
        info = binding_resource(obs.registry.snapshot())
        assert info is not None
        assert info["resource"] == "disk"
        assert 0.0 < info["mean"] <= 1.0 + 1e-9
        assert info["max"] >= info["mean"]
        assert info["max_node"].startswith("node")
        assert set(info["per_resource"]) == {"cpu", "nic", "bus", "disk"}

    def test_no_utilization_metrics(self):
        assert binding_resource({"collected": {}}) is None
        assert binding_resource({}) is None

    def test_report_names_disk(self, kmc_run):
        obs, _ = kmc_run
        attr = attribute(obs.tracer.records)
        text = render_profile_report(attr, metrics=obs.registry.snapshot())
        assert "binding resource: disk" in text
        assert "total = mean response" in text

    def test_report_without_metrics_falls_back(self, kmc_run):
        obs, _ = kmc_run
        attr = attribute(obs.tracer.records)
        text = render_profile_report(attr, metrics=None)
        assert "dominant phase group" in text

    def test_report_empty_trace(self):
        assert "no finished request roots" in render_profile_report(
            attribute([])
        )


class TestProfilingIsPureObservation:
    def test_profiled_metrics_match_traced_run(self):
        """Profiling must not perturb the simulation: a profiled run and
        a plain traced run produce byte-identical metrics snapshots."""
        workload = _workload()
        profiled, _ = _profiled_run("cc-kmc", workload)

        cfg = ExperimentConfig(
            system="cc-kmc", trace=workload, num_nodes=4,
            mem_mb_per_node=0.5, num_clients=8, seed=0,
        )
        traced = Observability(trace=True)
        run_experiment(cfg, obs=traced)
        assert profiled.registry.to_json() == traced.registry.to_json()

    def test_no_unfinished_spans_after_run(self, kmc_run):
        obs, _ = kmc_run
        assert obs.tracer.open_spans == []


class TestChromeExport:
    def test_valid_trace_event_json(self, kmc_run, tmp_path):
        obs, _ = kmc_run
        doc = to_chrome_trace(obs.tracer.records)
        # Must survive a JSON round-trip (what Perfetto actually loads).
        doc = json.loads(json.dumps(doc, sort_keys=True, default=float))
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert events
        names = {}
        for ev in events:
            assert ev["ph"] in ("X", "i", "M")
            assert isinstance(ev["pid"], int) and ev["pid"] >= 0
            assert isinstance(ev["tid"], int) and ev["tid"] >= 0
            if ev["ph"] == "M":
                assert ev["name"] in ("process_name", "thread_name")
                names.setdefault(ev["name"], set()).add(ev["args"]["name"])
            else:
                assert ev["ts"] >= 0.0
                assert ev["cat"] == "sim"
                assert "trace" in ev["args"] and "span" in ev["args"]
            if ev["ph"] == "X":
                assert ev["dur"] > 0.0
        # 4 nodes + the cluster pseudo-process, all named.
        assert names["process_name"] == {
            "cluster", "node0", "node1", "node2", "node3"
        }
        assert "disk" in names["thread_name"]

    def test_complete_events_cover_all_finished_spans(self, kmc_run):
        obs, _ = kmc_run
        doc = to_chrome_trace(obs.tracer.records)
        payload = [e for e in doc["traceEvents"] if e["ph"] in ("X", "i")]
        assert len(payload) == len(obs.tracer.records)

    def test_unfinished_spans_become_flagged_instants(self):
        recs = [
            {"trace": 1, "span": 1, "parent": None, "name": "a",
             "node": None, "start": 2.5, "end": None, "unfinished": True},
        ]
        events = [
            e for e in to_chrome_trace(recs)["traceEvents"]
            if e["ph"] != "M"
        ]
        assert len(events) == 1
        ev = events[0]
        assert ev["ph"] == "i"
        assert ev["s"] == "t"
        assert ev["ts"] == 2.5 * 1000.0
        assert ev["args"]["unfinished"] is True
        assert "dur" not in ev

    def test_chaos_faults_share_one_events_lane(self):
        """A seeded chaos run exported: every ``fault`` point is in the
        Chrome trace, all on the single ``events`` lane, and spans left
        open at dump time stay flagged instants."""
        cfg = ExperimentConfig(
            system="cc-kmc",
            trace=datasets.scaled("rutgers", 0.005, num_requests=300),
            num_nodes=4,
            mem_mb_per_node=0.25,
            num_clients=8,
            seed=0,
            faults=FaultPlan.random(1, 2000.0, 4, crashes_per_node=2.0,
                                    link_drops=1, disk_stalls=1),
        )
        obs = Observability(trace=True)
        run_experiment(cfg, obs=obs)
        # A request still in flight when the trace is dumped.
        obs.tracer.start("request", node=0)
        records = [json.loads(line)
                   for line in obs.tracer.to_jsonl().splitlines()]
        faults = [r for r in records if r["name"] == "fault"]
        assert faults

        doc = to_chrome_trace(records)
        events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert len(events) == len(records)
        fault_events = [e for e in events if e["name"] == "fault"]
        assert len(fault_events) == len(faults)
        lanes = {}
        for ev in doc["traceEvents"]:
            if ev["ph"] == "M" and ev["name"] == "thread_name":
                lanes.setdefault(ev["args"]["name"], set()).add(ev["tid"])
        assert len(lanes.get("events", ())) == 1
        (events_tid,) = lanes["events"]
        assert all(e["tid"] == events_tid for e in fault_events)
        assert all(e["tid"] != events_tid
                   for e in events if e["name"] != "fault")
        (ev,) = [e for e in events if e["args"].get("unfinished")]
        assert ev["ph"] == "i" and ev["s"] == "t"
        assert "dur" not in ev


class TestTimeseries:
    def test_totals_and_bounds(self, kmc_run):
        obs, _ = kmc_run
        ts = build_timeseries(obs.tracer.records)
        windows = ts["windows"]
        assert windows
        assert ts["num_nodes"] == 4
        assert sum(w["completions"] for w in windows) == 400
        for w in windows:
            assert w["throughput_rps"] >= 0.0
            assert sum(w["by_class"].values()) == w["completions"]
            for res, u in w["utilization"].items():
                assert -1e-9 <= u <= 1.0 + 1e-9, (res, u)
            for depth in w["queue_depth"].values():
                assert depth >= -1e-9
        # Warm-up boundary: cold windows first, then warm ones.
        flags = [w["warm"] for w in windows]
        assert flags == sorted(flags)
        assert ts["warm_start_ms"] is not None

    def test_explicit_window_width(self, kmc_run):
        obs, _ = kmc_run
        ts = build_timeseries(obs.tracer.records, window_ms=50.0)
        assert ts["window_ms"] == 50.0
        assert sum(w["completions"] for w in ts["windows"]) == 400

    def test_empty_trace(self):
        assert build_timeseries([])["windows"] == []


class TestTopRequests:
    def test_render_top_k(self, kmc_run):
        obs, _ = kmc_run
        text = render_top_requests(obs.tracer.records, k=3)
        assert "top 3 slowest" in text
        assert "#1 trace" in text and "#3 trace" in text
        assert "ph:" in text  # span trees include phase spans

    def test_slowest_first(self, kmc_run):
        obs, _ = kmc_run
        roots, _ = build_trees(obs.tracer.records)
        reqs = request_roots(roots, measured_only=True)
        slowest = max(reqs, key=lambda r: r.dur)
        text = render_top_requests(obs.tracer.records, k=1)
        assert f"#1 trace {slowest.trace_id} " in text

    def test_span_tree_depth_limit(self, kmc_run):
        obs, _ = kmc_run
        roots, _ = build_trees(obs.tracer.records)
        root = max(request_roots(roots), key=lambda r: len(list(r.walk())))
        text = format_span_tree(root, max_depth=0)
        assert "children elided" in text

    def test_unfinished_roots_get_their_own_section(self, kmc_run):
        obs, _ = kmc_run
        records = list(obs.tracer.records)
        records.append({
            "trace": 999001, "span": 999001, "parent": None,
            "name": "client", "node": 2, "start": 42.5, "end": None,
            "attrs": {"measured": True}, "unfinished": True,
        })
        text = render_top_requests(records, k=2)
        assert "top 2 slowest" in text
        assert "unfinished requests (1)" in text
        assert "excluded from the ranking" in text
        assert "trace 999001 span 999001 node=2 started @42.500 ms" in text

    def test_no_unfinished_section_when_all_finished(self, kmc_run):
        obs, _ = kmc_run
        text = render_top_requests(obs.tracer.records, k=1)
        assert "unfinished requests" not in text

    def test_only_unfinished_roots(self):
        records = [{
            "trace": 1, "span": 1, "parent": None, "name": "request",
            "node": None, "start": 0.0, "end": None, "unfinished": True,
        }]
        text = render_top_requests(records)
        assert "no finished request roots" in text
        assert "unfinished requests (1)" in text

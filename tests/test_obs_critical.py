"""Tests for critical-path extraction (repro.obs.critical)."""

import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.obs import Observability
from repro.obs.analyze import attribute, build_trees, request_roots
from repro.obs.critical import critical_path, critical_profile
from repro.obs.reports import render_critical_report
from repro.obs.schema import OUTPUT_SCHEMA_VERSION
from repro.traces import datasets


@pytest.fixture(scope="module")
def kmc_records():
    cfg = ExperimentConfig(
        system="cc-kmc",
        trace=datasets.scaled("rutgers", 0.01, num_requests=400),
        num_nodes=4,
        mem_mb_per_node=0.5,
        num_clients=8,
        seed=0,
    )
    obs = Observability(profile=True)
    run_experiment(cfg, obs=obs)
    return obs.tracer.records


def _rec(span, parent, name, start, end, node=None, trace=1, **attrs):
    return {"trace": trace, "span": span, "parent": parent, "name": name,
            "node": node, "start": start, "end": end, "attrs": attrs}


class TestCriticalPath:
    def test_segments_tile_every_request(self, kmc_records):
        roots, _ = build_trees(kmc_records)
        reqs = request_roots(roots)
        assert reqs
        for root in reqs:
            segs = critical_path(root)
            assert segs, "finished request with empty critical path"
            covered = 0.0
            for seg in segs:
                assert seg.dur > 0.0
                assert seg.start >= root.start - 1e-9
                assert seg.end <= root.end + 1e-9
                covered += seg.dur
            # Ordered and non-overlapping.
            for a, b in zip(segs, segs[1:]):
                assert b.start >= a.end - 1e-9
            assert covered == pytest.approx(root.dur, abs=1e-6)

    def test_phase_totals_match_attribution(self, kmc_records):
        """critical_profile and attribute() aggregate the same segments
        the same way: per-phase critical ms / request == phase means."""
        profile = critical_profile(kmc_records)
        attr = attribute(kmc_records)
        assert profile["requests"] == attr.count
        assert profile["mean_critical_ms"] == pytest.approx(
            attr.mean_response_ms, rel=1e-9
        )
        means = attr.phase_means()
        n = profile["requests"]
        for phase, total in profile["phase_critical_ms"].items():
            assert total / n == pytest.approx(
                means.get(phase, 0.0), abs=1e-9
            ), phase

    def test_profile_schema_and_edges(self, kmc_records):
        profile = critical_profile(kmc_records, top_edges=5)
        assert profile["schema_version"] == OUTPUT_SCHEMA_VERSION
        assert profile["kind"] == "critical"
        assert abs(profile["mean_residual_ms"]) < 1e-9
        shares = profile["phase_critical_share"]
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)
        edges = profile["top_edges"]
        assert 0 < len(edges) <= 5
        for edge in edges:
            assert " -> " in edge["edge"]
            assert edge["count"] >= 1
            assert edge["ms"] > 0.0
        # Ranked by critical milliseconds, descending.
        ms = [e["ms"] for e in edges]
        assert ms == sorted(ms, reverse=True)

    def test_measured_only_excludes_warmup(self, kmc_records):
        everything = critical_profile(kmc_records, measured_only=False)
        measured = critical_profile(kmc_records, measured_only=True)
        assert everything["requests"] == 400
        assert measured["requests"] == 300


class TestSyntheticTraces:
    def test_serial_phase_splits_and_gaps(self):
        recs = [
            _rec(1, None, "request", 0.0, 10.0),
            _rec(2, 1, "ph", 0.0, 2.0, node=0, p="cpu", q=0.5),
            _rec(3, 1, "ph", 3.0, 9.0, node=0, p="disk", svc=4.0, seek=1.0),
        ]
        roots, _ = build_trees(recs)
        segs = critical_path(roots[0])
        got = [(s.phase, s.start, s.end) for s in segs]
        assert got == [
            ("cpu.queue", 0.0, 0.5),
            ("cpu.service", 0.5, 2.0),
            ("other", 2.0, 3.0),
            ("disk.queue", 3.0, 5.0),
            ("disk.seek", 5.0, 6.0),
            ("disk.transfer", 6.0, 9.0),
            ("other", 9.0, 10.0),
        ]

    def test_fetch_fan_out_backward_walk(self):
        # Fan-out behind a fetch: the sibling disk phase covers the tail
        # of the wait, the uncovered head is fetch-classified queueing.
        recs = [
            _rec(1, None, "request", 0.0, 8.0),
            _rec(2, 1, "ph", 0.0, 8.0, node=0, p="fetch"),
            _rec(3, 1, "ph", 5.0, 8.0, node=1, p="disk", svc=3.0, seek=1.0),
        ]
        roots, _ = build_trees(recs)
        segs = critical_path(roots[0])
        got = [(s.phase, s.start, s.end, s.node) for s in segs]
        assert got == [
            ("disk.queue", 0.0, 5.0, 0),
            ("disk.seek", 5.0, 6.0, 1),
            ("disk.transfer", 6.0, 8.0, 1),
        ]

    def test_fetch_join_gap_is_coalesce_wait(self):
        recs = [
            _rec(1, None, "request", 0.0, 8.0),
            _rec(2, 1, "ph", 0.0, 8.0, node=0, p="fetch", j=1),
            _rec(3, 1, "ph", 5.0, 8.0, node=1, p="disk", svc=3.0, seek=1.0),
        ]
        roots, _ = build_trees(recs)
        segs = critical_path(roots[0])
        assert segs[0].phase == "coalesce.wait"
        assert (segs[0].start, segs[0].end) == (0.0, 5.0)

    def test_edge_aggregation(self):
        recs = [
            _rec(1, None, "request", 0.0, 4.0),
            _rec(2, 1, "ph", 0.0, 2.0, node=0, p="cpu"),
            _rec(3, 1, "ph", 2.0, 4.0, node=1, p="wire"),
        ]
        profile = critical_profile(recs, measured_only=False)
        assert profile["requests"] == 1
        edges = {e["edge"]: e for e in profile["top_edges"]}
        assert edges["cpu.service@0 -> wire@1"]["count"] == 1
        assert edges["cpu.service@0 -> wire@1"]["ms"] == pytest.approx(2.0)


class TestRenderCritical:
    def test_report_text(self, kmc_records):
        text = render_critical_report(critical_profile(kmc_records))
        assert "critical-path profile" in text
        assert "total = mean critical path" in text
        assert "top critical edges" in text
        assert "tiling residual" in text

    def test_empty_profile(self):
        text = render_critical_report(critical_profile([]))
        assert "no finished request roots" in text

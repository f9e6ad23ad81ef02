"""Tests for critical-path extraction (repro.obs.critical)."""

import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.obs import Observability
from repro.obs.analyze import build_trees, request_roots
from repro.obs.critical import critical_path
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

    def test_measured_only_excludes_warmup(self, kmc_records):
        roots, _ = build_trees(kmc_records)
        assert len(request_roots(roots, measured_only=False)) == 400
        assert len(request_roots(roots, measured_only=True)) == 300


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

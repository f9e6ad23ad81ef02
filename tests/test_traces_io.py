"""Tests for trace persistence (save_trace / load_trace)."""

import numpy as np
import pytest

from repro.traces import (
    TraceSpec,
    generate,
    load_trace,
    save_trace,
)


def make_trace():
    return generate(TraceSpec("io-test", 50, 500, 12.0, zipf_theta=1.0,
                              temporal_alpha=0.2, seed=9))


class TestRoundTrip:
    def test_roundtrip_exact(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert np.array_equal(loaded.requests, trace.requests)
        assert np.array_equal(loaded.sizes_kb, trace.sizes_kb)
        assert loaded.spec == trace.spec

    def test_roundtrip_preserves_aggregates(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.mean_request_kb == trace.mean_request_kb
        assert loaded.file_set_mb == trace.file_set_mb

    def test_loaded_trace_runs_in_experiments(self, tmp_path):
        from repro.experiments import ExperimentConfig, run_experiment

        trace = make_trace()
        path = tmp_path / "t.npz"
        save_trace(trace, path)
        res = run_experiment(
            ExperimentConfig(
                system="cc-kmc", trace=load_trace(path), num_nodes=2,
                mem_mb_per_node=0.25, num_clients=4,
            )
        )
        assert res.throughput_rps > 0

    def test_clf_trace_roundtrip(self, tmp_path):
        from repro.traces import parse_clf_lines

        lines = [
            'h - - [d] "GET /a HTTP/1.0" 200 1024',
            'h - - [d] "GET /b HTTP/1.0" 200 2048',
            'h - - [d] "GET /a HTTP/1.0" 200 1024',
        ]
        trace = parse_clf_lines(lines, name="log")
        path = tmp_path / "log.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.spec.name == "log"
        assert list(loaded.requests) == [0, 1, 0]


class TestErrors:
    def test_not_a_trace_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, foo=np.arange(3))
        with pytest.raises(ValueError, match="not a saved trace"):
            load_trace(path)

    def test_wrong_version(self, tmp_path):
        import json

        trace = make_trace()
        path = tmp_path / "t.npz"
        meta = json.dumps({"format_version": 99, "spec": {}})
        np.savez(
            path,
            sizes_kb=trace.sizes_kb,
            requests=trace.requests,
            meta=np.frombuffer(meta.encode(), dtype=np.uint8),
        )
        with pytest.raises(ValueError, match="unsupported trace format"):
            load_trace(path)

    def test_non_finite_sizes_rejected(self, tmp_path):
        """A saved trace is outside input: NaN or inf sizes fail on load,
        not deep inside a run."""
        import json

        meta = json.dumps({"format_version": 1,
                           "spec": {"name": "bad", "num_files": 3,
                                    "num_requests": 3, "mean_file_kb": 4.0}})
        path = tmp_path / "bad.npz"
        np.savez_compressed(
            path,
            sizes_kb=np.array([4.0, np.nan, np.inf]),
            requests=np.array([0, 1, 2]),
            meta=np.frombuffer(meta.encode(), dtype=np.uint8),
        )
        with pytest.raises(ValueError, match="all file sizes must be positive"):
            load_trace(path)

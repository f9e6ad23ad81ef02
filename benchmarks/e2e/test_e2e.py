"""Checks on the end-to-end benchmark itself, at a small size.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import subprocess
import sys
import time

import pytest

import child
import run

SMALL = 1_500


@pytest.fixture(scope="module")
def small_runs():
    """Two untraced runs and one traced run of every workload."""
    out = {}
    for w in child.WORKLOADS:
        untraced = [run.run_child(w, child.DEFAULT_SEED, SMALL, "run") for _ in range(2)]
        traced = run.run_child(w, child.DEFAULT_SEED, SMALL, "traced")
        out[w] = (untraced, traced)
    return out


def test_every_workload_emits_every_named_metric(small_runs):
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(child.WORKLOADS)
    for w, (untraced, traced) in small_runs.items():
        summary = run.summarize(w, child.DEFAULT_SEED, SMALL, untraced, traced)
        assert summary["failed_runs"] == 0, summary["failures"]
        assert {m["name"] for m in spec["end_to_end"]} <= set(summary["end_to_end"])
        assert {m["name"] for m in spec["per_layer"]} <= set(summary["per_layer"])


def test_every_package_file_maps_to_exactly_one_layer():
    pkg = child.SRC / "repro"
    files = sorted(p.relative_to(pkg).as_posix() for p in pkg.rglob("*.py"))
    assert files
    for rel in files:
        hits = [name for name, patterns in child.LAYERS
                if any(fnmatch.fnmatchcase(rel, p) for p in patterns)]
        assert len(hits) == 1, (rel, hits)


def test_repro_other_is_a_small_share(small_runs):
    for w, (_untraced, traced) in small_runs.items():
        shares = traced["self_time"]
        assert shares["repro.other"] / sum(shares.values()) < 0.03, w


def test_counts_and_digests_repeat(small_runs):
    for w, (untraced, traced) in small_runs.items():
        one, two = untraced
        assert one["digest"] == two["digest"] == traced["digest"], w
        assert one["events"] == two["events"] == traced["events"], w
        assert one["exact"] == two["exact"], w


def _child(workload: str, hashseed: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "child.py"), "--workload", workload,
         "--requests", str(SMALL), "--mode", "traced"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["kmc-writes", "press-remote"])
def test_counts_and_digests_ignore_the_hash_seed(workload):
    one, two = _child(workload, "1"), _child(workload, "2")
    assert one["digest"] == two["digest"]
    assert one["exact"] == two["exact"]


def _result_set(path, req_per_s: float) -> str:
    e2e = {
        "host_req_per_s": [req_per_s * f for f in (0.99, 1.0, 1.0, 1.0, 1.01)],
        "setup_s": [0.2] * 5,
        "peak_rss_mb": [40.0] * 5,
    }
    result = {"seed": 14, "requests": 24_000, "workloads": {"kmc-remote": {
        "digest": "d", "failed_runs": 0, "exact": {"core.hit_remote": 0.7},
        "end_to_end": {k: run._stats(v[2], v) for k, v in e2e.items()},
    }}}
    path.write_text(json.dumps(result), encoding="utf-8")
    return str(path)


def test_compare_gates_on_the_bound(tmp_path, capsys):
    base = _result_set(tmp_path / "base.json", 6_000.0)
    assert run.compare(base, _result_set(tmp_path / "slower.json", 6_000.0 * 0.89)) == 1
    assert "host_req_per_s -11.0% FAIL" in capsys.readouterr().out
    assert run.compare(base, _result_set(tmp_path / "noise.json", 6_000.0 * 0.95)) == 0
    assert "host_req_per_s -5.0% ok" in capsys.readouterr().out


def test_compare_flags_a_wide_spread_as_unresolved(tmp_path, capsys):
    base = _result_set(tmp_path / "base.json", 6_000.0)
    wide = json.loads((tmp_path / "base.json").read_text(encoding="utf-8"))
    values = [4_000.0, 5_000.0, 5_800.0, 7_000.0, 8_000.0]
    wide["workloads"]["kmc-remote"]["end_to_end"]["host_req_per_s"] = run._stats(5_800.0, values)
    (tmp_path / "wide.json").write_text(json.dumps(wide), encoding="utf-8")
    assert run.compare(base, str(tmp_path / "wide.json")) == 0
    assert "host_req_per_s -3.3% unresolved" in capsys.readouterr().out


def test_compare_requires_exact_counts(tmp_path, capsys):
    base = _result_set(tmp_path / "base.json", 6_000.0)
    changed = json.loads((tmp_path / "base.json").read_text(encoding="utf-8"))
    changed["workloads"]["kmc-remote"]["exact"]["core.hit_remote"] = 0.71
    (tmp_path / "changed.json").write_text(json.dumps(changed), encoding="utf-8")
    assert run.compare(base, str(tmp_path / "changed.json")) == 1
    assert "exact FAIL (core.hit_remote)" in capsys.readouterr().out


def test_ref_seconds_scale_each_stretch_by_its_probes():
    ref = child.PROBE_REF_S
    # probes at reference speed, then one twice as slow, then 3x as slow
    samples = [(10.0, ref), (11.0, ref), (12.0, 2 * ref), (13.0, 3 * ref)]
    stretch = 1.0 - ref  # host seconds between the end of a probe and the next
    assert child.ref_seconds(samples, 10.0, 11.0) == pytest.approx(stretch)
    assert child.ref_seconds(samples, 11.0, 12.0) == pytest.approx(stretch / 1.5)
    # a span that starts and ends inside stretches counts only its part
    whole = stretch + stretch / 1.5 + (1.0 - 2 * ref) / 2.5
    assert child.ref_seconds(samples, 10.0, 13.0) == pytest.approx(whole)
    assert child.ref_seconds(samples, 10.5, 11.5) == pytest.approx(0.5 + (0.5 - ref) / 1.5)


def test_ref_clock_samples_until_stopped():
    clock = child.RefClock()
    clock.start()
    t0 = time.perf_counter()  # simlint: disable=SL02 -- the test times host seconds
    while time.perf_counter() - t0 < 0.1:  # simlint: disable=SL02 -- the test times host seconds
        pass
    t1 = time.perf_counter()  # simlint: disable=SL02 -- the test times host seconds
    clock.stop()
    n = len(clock.samples)
    assert n >= 0.1 / child.SAMPLE_S / 2
    assert [t for t, _ in clock.samples] == sorted(t for t, _ in clock.samples)
    assert clock.seconds(t0, t1) > 0
    time.sleep(2 * child.SAMPLE_S)
    assert len(clock.samples) == n


def test_one_workload_interface_prints_one_result_line(monkeypatch, capsys):
    monkeypatch.setattr(child, "DEFAULT_REQUESTS", SMALL)
    args = argparse.Namespace(workload="press-remote", seed=3, seconds=0, trace=0)
    assert run.one_workload(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert result["attempted"] == run.MIN_RUNS
    assert set(result["metrics"]) == {m["name"] for m in run.load_spec()["end_to_end"]}


def test_a_bare_checkout_fails_without_a_result(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for f in ("run.py", "child.py"):
        (bench / f).write_bytes((run.BENCH_DIR / f).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(run.SPEC_FILE.read_bytes())
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "kmc-remote",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Fast tests for the ablation studies (tiny monkeypatched workloads)."""

import pytest

import repro.experiments.ablations as abl
from repro.traces import TraceSpec, generate

#: A small synthetic workload: A8 regenerates it from its spec.
MINI = TraceSpec("mini", 30, 400, 12.0, zipf_theta=1.0)


@pytest.fixture(autouse=True)
def small_world(monkeypatch):
    """Shrink every ablation to a toy workload and few clients."""
    monkeypatch.setattr(abl.defaults, "NUM_CLIENTS", 4)
    monkeypatch.setattr(abl.defaults, "SCALE", 0.01)
    monkeypatch.setattr(abl.defaults, "workload", lambda name: generate(MINI))


def cells(name):
    """Study ``name``'s rows keyed by ``(point, variant)``, and its render."""
    record = abl.run_ablation(name)
    axis = abl.ABLATIONS[name].axis
    at = {(row[axis], row["variant"]): row for row in record["rows"]}
    return at, abl.render_ablation(record)


@pytest.mark.parametrize("name", list(abl.ABLATIONS))
def test_study_rows_and_render(name):
    spec = abl.ABLATIONS[name]
    record = abl.run_ablation(name)
    rows = record["rows"]
    # One row per point x variant cell, each carrying the spec's columns.
    assert {row["variant"] for row in rows} == set(spec.variants)
    assert len({(row[spec.axis], row["variant"]) for row in rows}) == len(rows)
    columns = {"mem_mb", spec.axis, "variant", *spec.metrics}
    if spec.ref is not None:
        columns.add(f"vs_{spec.ref}")
        ref = {row[spec.axis]: row["throughput_rps"] for row in rows
               if row["variant"] == spec.ref}
        for row in rows:
            assert row[f"vs_{spec.ref}"] * ref[row[spec.axis]] \
                == pytest.approx(row["throughput_rps"])
    for row in rows:
        assert set(row) == columns
        assert row["throughput_rps"] > 0
    assert spec.title in abl.render_ablation(record)


class TestA1Hints:
    def test_shape_and_render(self):
        at, out = cells("a1")
        assert [variant for _, variant in at] == [
            "perfect", "hints1", "hints0.98", "hints0.95", "hints0.9",
            "hints0.7"]
        (mem,) = {point for point, _ in at}
        assert at[mem, "perfect"]["vs_perfect"] == 1.0
        assert "hint-based directory" in out

    def test_perfect_hints_near_parity(self):
        rows = {row["variant"]: row for row in abl.run_ablation("a1")["rows"]}
        assert rows["hints1"]["vs_perfect"] == pytest.approx(1.0, abs=0.1)


class TestA2Hotspot:
    def test_shape_and_render(self):
        at, out = cells("a2")
        (mem,) = {point for point, _ in at}
        assert at[mem, "spread"]["throughput_rps"] > 0
        assert 0 < at[mem, "concentrated"]["vs_spread"] < 3
        assert "homed on node 0" in out


class TestA3WholeFile:
    def test_shape_and_render(self):
        at, out = cells("a3")
        points = {point for point, _ in at}
        assert len(points) == 3
        for mem in points:
            assert at[mem, "block"]["throughput_rps"] > 0
            assert at[mem, "whole-file"]["throughput_rps"] > 0
        assert "caching granularity" in out


class TestA4DiskSched:
    def test_shape_and_render(self):
        at, out = cells("a4")
        assert len(at) == 4
        assert {variant for _, variant in at} == {
            "basic/fifo", "basic/scan", "kmc/fifo", "kmc/scan"}
        assert "disk scheduling" in out


class TestA5Lan:
    def test_shape_and_render(self):
        at, out = cells("a5")
        for lan in ("lan-100mb", "lan-1gb", "lan-10gb"):
            press, kmc = at[lan, "press"], at[lan, "cc-kmc"]
            assert press["throughput_rps"] > 0 and kmc["throughput_rps"] > 0
            assert kmc["vs_press"] == pytest.approx(
                kmc["throughput_rps"] / press["throughput_rps"])
        assert "LAN sensitivity" in out


class TestA6Replacement:
    def test_shape_and_render(self):
        at, out = cells("a6")
        assert len(at) == 4
        (mem,) = {point for point, _ in at}
        assert at[mem, "kmc/nofwd"]["forwards"] == 0
        assert at[mem, "basic/nofwd"]["forwards"] == 0
        assert "replacement components" in out


class TestA7Writes:
    def test_shape_and_render(self):
        at, out = cells("a7")
        assert at[0.0, "write-back"]["flushes"] == 0
        assert at[0.0, "write-back"]["invalidations"] == 0
        assert at[0.3, "write-through"]["flushes"] > 0
        assert "read/write workloads" in out


class TestA8Temporal:
    def test_shape_and_render(self):
        at, out = cells("a8")
        assert at[0.4, "cc-kmc"]["recency"] \
            >= at[0.0, "cc-kmc"]["recency"] - 0.02
        assert all(row["throughput_rps"] > 0 for row in at.values())
        assert "temporal locality" in out


def test_sharded_study_matches_serial(monkeypatch):
    """Every study's cells pickle, and sharding them changes nothing."""
    serial = [abl.run_ablation(name) for name in abl.ABLATIONS]
    monkeypatch.setenv("REPRO_WORKERS", "2")
    assert [abl.run_ablation(name) for name in abl.ABLATIONS] == serial

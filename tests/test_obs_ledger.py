"""Tests for the append-only provenance run ledger.

The determinism contract: with an injected clock and a pinned
``REPRO_GIT_SHA``/directory environment, appending the same
records produces a byte-identical ledger file — ``run_id`` is a digest
of the record itself, so identical provenance means identical identity.
"""

import itertools
import json

import pytest

from repro.bench.schema import dump_record, wrap_result
from repro.obs.ledger import (
    LEDGER_VERSION,
    RECORD_KINDS,
    Ledger,
    environment_stamp,
    filter_records,
    find_record,
    latest_sweep,
    load_ledger,
    run_id,
)
from repro.obs.ledger import main as ledger_main
from repro.obs.schema import as_report


def fake_clock(start=1_700_000_000.0, step=1.0):
    counter = itertools.count()
    return lambda: start + step * next(counter)


@pytest.fixture
def pinned_env(monkeypatch):
    """Pin every environment input a ledger record captures."""
    monkeypatch.setenv("REPRO_GIT_SHA", "cafebabe")
    monkeypatch.delenv("REPRO_DIRECTORY", raising=False)


def _populate(path, clock=None):
    """A small representative ledger: run + sweep + two cells."""
    ledger = Ledger(str(path), clock=clock or fake_clock())
    ledger.append("run", system="cc-kmc", workload="rutgers",
                  mem_mb_per_node=0.5, seed=0, wall_s=1.25)
    sweep = ledger.append("sweep", figure="fig2", cells=2, workers=4)
    ledger.append("cell", parent=sweep["run_id"], cell_index=0,
                  system="press", workload="rutgers", mem_mb_per_node=0.1,
                  seed=0, wall_s=0.5)
    ledger.append("cell", status="failed", parent=sweep["run_id"],
                  cell_index=1, system="cc-gms", workload="berkeley",
                  mem_mb_per_node=0.5, seed=0, wall_s=0.2,
                  error="RuntimeError: boom")
    return ledger, sweep


class TestLedger:
    def test_append_stamps_provenance(self, tmp_path, pinned_env):
        ledger = Ledger(str(tmp_path / "l.jsonl"), clock=fake_clock())
        rec = ledger.append("run", system="cc-kmc", wall_s=2.0)
        assert rec["ledger_version"] == LEDGER_VERSION
        assert rec["kind"] == "run"
        assert rec["status"] == "ok"
        assert rec["git_sha"] == "cafebabe"
        assert rec["recorded_at"] == 1_700_000_000.0
        assert rec["env"] == {"directory": "oracle"}
        assert rec["run_id"] == run_id(rec)
        assert len(rec["run_id"]) == 16

    def test_unknown_kind_rejected(self, tmp_path):
        ledger = Ledger(str(tmp_path / "l.jsonl"))
        with pytest.raises(ValueError, match="unknown ledger record kind"):
            ledger.append("banana")
        assert not (tmp_path / "l.jsonl").exists()

    def test_round_trip_append_order(self, tmp_path, pinned_env):
        path = tmp_path / "l.jsonl"
        _populate(path)
        records = load_ledger(str(path))
        assert [r["kind"] for r in records] == ["run", "sweep", "cell",
                                                "cell"]
        for rec in records:
            assert rec["kind"] in RECORD_KINDS
            assert rec["run_id"] == run_id(rec)

    def test_byte_determinism_under_injected_clock(self, tmp_path,
                                                   pinned_env):
        """Same records + same clock + pinned env => identical bytes."""
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _populate(a)
        _populate(b)
        assert a.read_bytes() == b.read_bytes()

    def test_run_id_tracks_content(self, tmp_path, pinned_env):
        ledger = Ledger(str(tmp_path / "l.jsonl"), clock=lambda: 1.0)
        first = ledger.append("run", seed=0)
        same = ledger.append("run", seed=0)
        other = ledger.append("run", seed=1)
        assert first["run_id"] == same["run_id"]
        assert first["run_id"] != other["run_id"]

    def test_append_only_across_reopens(self, tmp_path, pinned_env):
        path = tmp_path / "l.jsonl"
        Ledger(str(path), clock=fake_clock()).append("run", seed=0)
        Ledger(str(path), clock=fake_clock()).append("run", seed=1)
        records = load_ledger(str(path))
        assert [r["seed"] for r in records] == [0, 1]

    def test_environment_stamp_tracks_knobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_DIRECTORY", raising=False)
        assert environment_stamp() == {"directory": "oracle"}
        monkeypatch.setenv("REPRO_DIRECTORY", "partitioned")
        assert environment_stamp() == {"directory": "partitioned"}


class TestQueries:
    def test_filters(self, tmp_path, pinned_env):
        path = tmp_path / "l.jsonl"
        _, sweep = _populate(path)
        records = load_ledger(str(path))
        assert len(filter_records(records, kind="cell")) == 2
        assert len(filter_records(records, kind="cell",
                                  status="failed")) == 1
        assert len(filter_records(records, system="press")) == 1
        assert len(filter_records(records, workload="rutgers")) == 2
        cells = filter_records(records, parent=sweep["run_id"])
        assert [c["cell_index"] for c in cells] == [0, 1]
        assert filter_records(records, kind="chaos") == []

    def test_latest_sweep(self, tmp_path, pinned_env):
        path = tmp_path / "l.jsonl"
        ledger, first = _populate(path)
        second = ledger.append("sweep", figure="fig2", cells=0, workers=1)
        records = load_ledger(str(path))
        assert latest_sweep(records)["run_id"] == second["run_id"]
        assert latest_sweep([]) is None

    def test_find_record_prefix(self):
        records = [{"run_id": "aaa1"}, {"run_id": "aaa2"},
                   {"run_id": "bbb3"}]
        assert find_record(records, "bbb")["run_id"] == "bbb3"
        assert find_record(records, "zzz") is None
        with pytest.raises(ValueError, match="ambiguous"):
            find_record(records, "aaa")


class TestCli:
    def test_list_table_and_filters(self, tmp_path, pinned_env, capsys):
        path = tmp_path / "l.jsonl"
        _populate(path)
        assert ledger_main(["list", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run_id" in out and "cc-kmc rutgers" in out
        assert ledger_main(["list", str(path), "--kind", "cell",
                            "--status", "failed"]) == 0
        out = capsys.readouterr().out
        assert "cc-gms" in out and "press" not in out

    def test_list_json(self, tmp_path, pinned_env, capsys):
        path = tmp_path / "l.jsonl"
        _populate(path)
        assert ledger_main(["list", str(path), "--json",
                            "--kind", "sweep"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == 1 and docs[0]["kind"] == "sweep"

    def test_list_no_match_and_missing_file(self, tmp_path, pinned_env,
                                            capsys):
        path = tmp_path / "l.jsonl"
        _populate(path)
        assert ledger_main(["list", str(path), "--system", "nope"]) == 0
        assert "no matching records" in capsys.readouterr().out
        assert ledger_main(["list", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_show_joins_artifacts(self, tmp_path, pinned_env, capsys):
        bench_path = tmp_path / "BENCH_fig2.json"
        rec = wrap_result("fig2", {"raw": True}, seed=0,
                          params={"scale": 0.02})
        rec["metrics"] = {"m": 1.0}
        dump_record(rec, bench_path)
        attr_path = tmp_path / "attr.json"
        attr_path.write_text(json.dumps(as_report("attribution", {
            "requests": 42, "mean_response_ms": 5.5,
            "mean_residual_ms": 0.5, "phase_means_ms": {"disk.queue": 5.0},
            "by_class": {},
            "binding_resource": {"resource": "disk", "utilization": 0.9},
        })))
        path = tmp_path / "l.jsonl"
        ledger = Ledger(str(path), clock=fake_clock())
        run = ledger.append("run", system="cc-kmc", artifacts={
            "bench": str(bench_path),
            "attribution": str(attr_path),
            "trace": str(tmp_path / "gone.jsonl"),
        })
        assert ledger_main(["show", str(path), run["run_id"][:6]]) == 0
        out = capsys.readouterr().out
        assert f'"run_id": "{run["run_id"]}"' in out
        assert "bench record 'fig2': 1 metrics" in out
        assert "attribution: 42 requests" in out and "binding disk" in out
        assert "(missing)" in out  # the dangling trace path

    def test_show_unknown_id(self, tmp_path, pinned_env, capsys):
        path = tmp_path / "l.jsonl"
        _populate(path)
        assert ledger_main(["show", str(path), "ffffffff"]) == 1
        assert "no record" in capsys.readouterr().err

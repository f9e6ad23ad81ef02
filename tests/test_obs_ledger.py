"""Tests for the append-only provenance run ledger.

The determinism contract: with an injected clock and a pinned
``REPRO_GIT_SHA``, appending the same records produces a byte-identical
ledger file — ``run_id`` is a digest of the record itself, so identical
provenance means identical identity.
"""

import itertools

import pytest

from repro.bench.schema import params_digest
from repro.obs.ledger import (
    LEDGER_VERSION,
    RECORD_KINDS,
    Ledger,
    load_ledger,
    run_id,
)
from repro.obs.ledger import main as ledger_main


def fake_clock(start=1_700_000_000.0, step=1.0):
    counter = itertools.count()
    return lambda: start + step * next(counter)


@pytest.fixture
def pinned_env(monkeypatch):
    """Pin every environment input a ledger record captures."""
    monkeypatch.setenv("REPRO_GIT_SHA", "cafebabe")


def _populate(path, clock=None):
    """A small representative ledger: a sweep and its two cells."""
    ledger = Ledger(str(path), clock=clock or fake_clock())
    sweep = ledger.append("sweep", figure="fig2", cells=2, workers=4)
    ledger.append("cell", parent=sweep["run_id"], index=0,
                  system="press", workload="rutgers", mem_mb_per_node=0.1,
                  seed=0, wall_s=0.5)
    ledger.append("cell", status="failed", parent=sweep["run_id"],
                  index=1, system="cc-gms", workload="berkeley",
                  mem_mb_per_node=0.5, seed=0, wall_s=0.2,
                  error="RuntimeError: boom")
    return ledger, sweep


class TestLedger:
    def test_append_stamps_provenance(self, tmp_path, pinned_env):
        ledger = Ledger(str(tmp_path / "l.jsonl"), clock=fake_clock())
        rec = ledger.append("cell", system="cc-kmc", wall_s=2.0)
        assert rec["ledger_version"] == LEDGER_VERSION
        assert rec["kind"] == "cell"
        assert rec["status"] == "ok"
        assert rec["git_sha"] == "cafebabe"
        assert rec["recorded_at"] == 1_700_000_000.0
        assert rec["run_id"] == run_id(rec)
        assert len(rec["run_id"]) == 16

    def test_unknown_kind_rejected(self, tmp_path):
        ledger = Ledger(str(tmp_path / "l.jsonl"))
        with pytest.raises(ValueError, match="unknown ledger record kind"):
            ledger.append("banana")
        with pytest.raises(ValueError, match="unknown ledger record kind"):
            ledger.append("run")
        assert not (tmp_path / "l.jsonl").exists()

    def test_round_trip_append_order(self, tmp_path, pinned_env):
        path = tmp_path / "l.jsonl"
        _populate(path)
        records = load_ledger(str(path))
        assert [r["kind"] for r in records] == ["sweep", "cell", "cell"]
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
        first = ledger.append("cell", seed=0)
        same = ledger.append("cell", seed=0)
        other = ledger.append("cell", seed=1)
        assert first["run_id"] == same["run_id"]
        assert first["run_id"] != other["run_id"]

    def test_run_id_is_the_params_digest_of_the_record(self, tmp_path,
                                                       pinned_env):
        """One digest construction for ledger ids and BENCH records."""
        rec = Ledger(str(tmp_path / "l.jsonl"), clock=lambda: 1.0).append(
            "cell", seed=0, mem_mb_per_node=0.5)
        assert rec["run_id"] == params_digest(
            {k: v for k, v in rec.items() if k != "run_id"})

    def test_append_only_across_reopens(self, tmp_path, pinned_env):
        path = tmp_path / "l.jsonl"
        Ledger(str(path), clock=fake_clock()).append("cell", seed=0)
        Ledger(str(path), clock=fake_clock()).append("cell", seed=1)
        records = load_ledger(str(path))
        assert [r["seed"] for r in records] == [0, 1]


class TestCli:
    def test_list_table(self, tmp_path, pinned_env, capsys):
        path = tmp_path / "l.jsonl"
        _populate(path)
        assert ledger_main(["list", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["run_id", "kind", "status", "wall",
                                    "cell"]
        assert [line.split()[1:3] for line in lines[1:]] == [
            ["sweep", "ok"], ["cell", "ok"], ["cell", "failed"]]
        assert lines[2].endswith("press rutgers 0.1MB")
        assert lines[3].endswith("cc-gms berkeley 0.5MB")

    def test_list_empty_and_missing_file(self, tmp_path, pinned_env,
                                         capsys):
        path = tmp_path / "l.jsonl"
        path.write_text("")
        assert ledger_main(["list", str(path)]) == 0
        assert "(no records)" in capsys.readouterr().out
        assert ledger_main(["list", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_list_prints_any_json_value(self, tmp_path, capsys):
        """A ledger is outside input: a non-string ``run_id``, ``kind``
        or ``status`` is printed as its ``str()``, not a crash."""
        path = tmp_path / "l.jsonl"
        path.write_text('{"kind": "sweep", "run_id": [1]}\n'
                        '{"kind": 7, "run_id": null, "status": {"a": 1}}\n')
        assert ledger_main(["list", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split()[:3] == ["[1]", "sweep", "?"]
        assert lines[2].split()[:4] == ["None", "7", "{'a':", "1}"]

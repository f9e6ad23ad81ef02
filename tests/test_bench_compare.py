"""Tests for the benchmark trajectory schema and the exact regression gate."""

import copy
import json
from pathlib import Path

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    compare_records,
    dump_record,
    load_record,
    mismatches,
    params_digest,
    wrap_result,
)
from repro.bench.__main__ import main as bench_main

BASELINES = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"

#: The fig2 point the gate once read only as part of its curve's mean.
FIG2_POINT = "data.rutgers.throughput_rps.cc-kmc[0]"


def committed(name):
    """A fresh copy of the committed baseline record ``name``."""
    return load_record(BASELINES / f"{name}.json")


def fig2_curve(record):
    return record["data"]["rutgers"]["throughput_rps"]["cc-kmc"]


def make_record(data, params=None, name="fig2"):
    return wrap_result(name, data, seed=0, params=params or {"scale": 0.02})


def gate(tmp_path, record, baseline):
    """Write ``baseline`` under its name and ``record`` under another
    file name, then run the CLI gate; returns its exit code."""
    baselines = tmp_path / "baselines"
    baselines.mkdir(exist_ok=True)
    dump_record(baseline, baselines / f"{baseline['name']}.json")
    dump_record(record, tmp_path / "record.json")
    return bench_main([
        "compare", str(tmp_path / "record.json"),
        "--baselines", str(baselines),
    ])


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------
class TestSchema:
    def test_wrap_result_carries_provenance(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafebabe")
        rec = wrap_result("fig2", {"x": 1}, seed=7,
                          params={"scale": 0.02, "requests": 800})
        assert rec["schema_version"] == SCHEMA_VERSION == 2
        assert rec["name"] == "fig2"
        assert rec["git_sha"] == "cafebabe"
        assert rec["seed"] == 7
        assert rec["params_digest"] == params_digest(rec["params"])
        assert len(rec["params_digest"]) == 16
        assert rec["data"] == {"x": 1}
        assert "metrics" not in rec

    def test_params_digest_is_order_independent(self):
        assert params_digest({"a": 1, "b": 2}) \
            == params_digest({"b": 2, "a": 1})
        assert params_digest({"a": 1}) != params_digest({"a": 2})

    def test_dump_load_round_trip_sorted(self, tmp_path):
        rec = make_record({"m": 1.0})
        path = tmp_path / "fig2.json"
        dump_record(rec, path)
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == load_record(path)
        # sorted keys: "data" before "git_sha" before "params"
        assert text.index('"data"') < text.index('"git_sha"') \
            < text.index('"params"')


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------
class TestCompare:
    def test_clean_pass(self):
        base = make_record({"a": [100.0, 50.0], "system": "press", "n": 3})
        assert compare_records(copy.deepcopy(base), base) == []

    def test_missing_metric_fails(self):
        base = make_record({"a": 100.0, "gone": 10.0})
        cur = make_record({"a": 100.0})
        assert compare_records(cur, base) \
            == ["data: keys missing ['gone'], extra []"]

    def test_params_digest_mismatch_fails(self):
        """Data from other workload knobs is not compared at all."""
        base = make_record({"a": 100.0}, params={"scale": 0.02})
        cur = make_record({"a": 50.0}, params={"scale": 0.05})
        found = compare_records(cur, base)
        assert len(found) == 1 and found[0].startswith("params_digest: ")

    @pytest.mark.parametrize("key, value", [
        ("count", 4), ("count", True), ("label", "cc-kmc"), ("flag", 1),
        ("flag", False), ("share", 0.5 + 2e-9), ("share", "0.5"),
        ("curve", [1.0, 2.0, 3.0]), ("curve", [1.0]),
    ], ids=["int", "bool-for-int", "str", "int-for-bool", "bool",
            "float-past-tolerance", "str-for-float", "longer-list",
            "shorter-list"])
    def test_every_value_is_compared(self, key, value):
        """Integers, strings and booleans must be equal (``True`` is not
        ``1``), floats within 1e-9 absolute, lists as long."""
        base = {"count": 3, "label": "press", "flag": True, "share": 0.5,
                "curve": [1.0, 2.0]}
        assert mismatches(copy.deepcopy(base), base) == []
        assert mismatches(dict(base, share=0.5 + 5e-10, count=3.0), base) \
            == []
        found = mismatches(dict(base, **{key: value}), base)
        assert len(found) == 1 and found[0].startswith(f"$.{key}")


# ---------------------------------------------------------------------------
# CLI gate, on copies of the committed baselines
# ---------------------------------------------------------------------------
def _halve_point(rec):
    fig2_curve(rec)[0] /= 2


def _improve_point(rec):
    fig2_curve(rec)[0] *= 1.5


def _double_a10_response(rec):
    for system in rec["data"]["systems"]:
        for point in system["points"]:
            point["mean_response_ms"] *= 2


def _one_more_failure(rec):
    rec["data"]["systems"][3]["points"][2]["failed_requests"] += 1


def _extra_key(rec):
    rec["data"]["rutgers"]["extra"] = 1.0


def _missing_key(rec):
    del rec["data"]["calgary"]


def _shorter_list(rec):
    fig2_curve(rec).pop()


def _other_digest(rec):
    rec["params_digest"] = "0" * 16


def _other_schema(rec):
    rec["schema_version"] = 1


class TestCliGate:
    def test_passing_run_exits_zero(self, tmp_path, capsys):
        """Both gated records, copied under other file names, pass
        against the committed baselines: the lookup goes by ``name``."""
        paths = []
        for name in ("fig2", "a10_faults"):
            paths.append(tmp_path / f"run-{name}.json")
            dump_record(committed(name), paths[-1])
        assert bench_main([
            "compare", *map(str, paths), "--baselines", str(BASELINES),
        ]) == 0
        assert capsys.readouterr().out.count("equals") == 2

    def test_synthetic_regression_exits_nonzero(self, tmp_path, capsys):
        """Halving one fig2 point moves its curve's mean by only 8%;
        the gate names the point."""
        base = committed("fig2")
        rec = copy.deepcopy(base)
        _halve_point(rec)
        assert gate(tmp_path, rec, base) == 1
        out = capsys.readouterr().out
        assert "1 mismatch(es)" in out
        assert f"{FIG2_POINT}: {fig2_curve(base)[0]!r} -> " in out

    @pytest.mark.parametrize("name, change", [
        ("fig2", _improve_point),
        ("a10_faults", _double_a10_response),
        ("a10_faults", _one_more_failure),
        ("fig2", _extra_key),
        ("fig2", _missing_key),
        ("fig2", _shorter_list),
        ("fig2", _other_digest),
        ("a10_faults", _other_schema),
    ], ids=["improved-point", "doubled-a10-response", "a10-failure-count",
            "extra-key", "missing-key", "shorter-list", "params-digest",
            "schema-version"])
    def test_changed_record_exits_one(self, tmp_path, capsys, name, change):
        """Any change of a committed record fails, an improvement too."""
        base = committed(name)
        rec = copy.deepcopy(base)
        change(rec)
        assert gate(tmp_path, rec, base) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_rounding_nudge_passes(self, tmp_path, capsys):
        """A 1e-12 relative nudge is interpreter rounding, not a change."""
        base = committed("fig2")
        rec = copy.deepcopy(base)
        fig2_curve(rec)[0] *= 1 + 1e-12
        assert fig2_curve(rec)[0] != fig2_curve(base)[0]
        assert gate(tmp_path, rec, base) == 0

    @pytest.mark.parametrize("side", ["current", "baseline"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_metric_exits_one(self, tmp_path, capsys, side,
                                         bad):
        """NaN equals nothing, itself included, and an infinite value
        has no finite distance to any baseline: either side fails."""
        base = committed("fig2")
        rec = copy.deepcopy(base)
        fig2_curve(rec if side == "current" else base)[0] = float(bad)
        assert gate(tmp_path, rec, base) == 1
        assert f"{FIG2_POINT}: " in capsys.readouterr().out

    def test_missing_baseline_is_a_usage_error(self, tmp_path, capsys):
        """A record without a baseline is not silently skipped, and no
        record is compared when one input is wrong."""
        gated = tmp_path / "fig2.json"
        dump_record(committed("fig2"), gated)
        orphan = tmp_path / "orphan.json"
        dump_record(make_record({"m": 1.0}, name="new"), orphan)
        assert bench_main([
            "compare", str(gated), str(orphan),
            "--baselines", str(BASELINES),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "record 'new', which has no baseline" in captured.err

    def test_exit_codes_are_distinct_and_pinned(self, tmp_path, capsys):
        """The documented contract: 0 clean / 1 mismatch / 2 usage, and
        a usage error wins over a mismatch."""
        ok = tmp_path / "ok.json"
        dump_record(committed("fig2"), ok)
        bad_rec = committed("a10_faults")
        _double_a10_response(bad_rec)
        bad = tmp_path / "bad.json"
        dump_record(bad_rec, bad)
        orphan = tmp_path / "orphan.json"
        dump_record(make_record({"m": 1.0}, name="orphan"), orphan)
        for records, code in [([ok], 0), ([ok, bad], 1),
                              ([bad, orphan], 2)]:
            assert bench_main([
                "compare", *map(str, records),
                "--baselines", str(BASELINES),
            ]) == code
        with pytest.raises(SystemExit) as exc:
            bench_main(["compare"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unreadable_record_is_a_usage_error(self, tmp_path, capsys):
        """Cannot-read-your-input must not masquerade as a regression."""
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        assert bench_main([
            "compare", str(tmp_path / "missing.json"),
            "--baselines", str(baselines),
        ]) == 2
        for name, text in [("garbage", "not json {"), ("list", "[1]"),
                           ("nameless", '{"data": {}}')]:
            (tmp_path / f"{name}.json").write_text(text)
            assert bench_main([
                "compare", str(tmp_path / f"{name}.json"),
                "--baselines", str(baselines),
            ]) == 2
        # A corrupt committed baseline is also a usage error, not a pass.
        dump_record(make_record({"a": 100.0}), tmp_path / "ok.json")
        (baselines / "fig2.json").write_text("not json {")
        assert bench_main([
            "compare", str(tmp_path / "ok.json"),
            "--baselines", str(baselines),
        ]) == 2
        err = capsys.readouterr().err
        assert "cannot read record" in err
        assert "not a trajectory record" in err
        assert "cannot read baseline" in err

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            bench_main(["compare", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert "2  usage error" in out

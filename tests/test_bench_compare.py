"""Tests for the benchmark trajectory schema and the regression gate."""

import json

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    compare_records,
    dump_record,
    extract_throughput_metrics,
    load_record,
    params_digest,
    render_compare,
    wrap_result,
)
from repro.bench.__main__ import main as bench_main


def make_record(metrics, params=None, name="fig2"):
    rec = wrap_result(name, {"raw": True}, seed=0,
                      params=params or {"scale": 0.02})
    rec["metrics"] = dict(metrics)
    return rec


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------
class TestSchema:
    def test_wrap_result_carries_provenance(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafebabe")
        rec = wrap_result("fig2", {"x": 1}, seed=7,
                          params={"scale": 0.02, "requests": 800})
        assert rec["schema_version"] == SCHEMA_VERSION
        assert rec["name"] == "fig2"
        assert rec["git_sha"] == "cafebabe"
        assert rec["seed"] == 7
        assert rec["params_digest"] == params_digest(rec["params"])
        assert len(rec["params_digest"]) == 16

    def test_params_digest_is_order_independent(self):
        assert params_digest({"a": 1, "b": 2}) \
            == params_digest({"b": 2, "a": 1})
        assert params_digest({"a": 1}) != params_digest({"a": 2})

    def test_extract_fig2_shape(self):
        data = {
            "rutgers": {
                "memory_mb": [4, 16],
                "throughput_rps": {"cc-kmc": [100.0, 300.0],
                                   "press": [90.0, 250.0]},
            },
        }
        metrics = extract_throughput_metrics(data)
        assert metrics == {
            "rutgers.throughput_rps.cc-kmc": 200.0,
            "rutgers.throughput_rps.press": 170.0,
        }

    def test_extract_a10_shape_uses_self_describing_labels(self):
        data = {"systems": [
            {"system": "cc-kmc",
             "points": [{"name": "faultfree", "throughput_rps": 500.0},
                        {"name": "crashy", "throughput_rps": 400.0}]},
        ]}
        metrics = extract_throughput_metrics(data)
        assert metrics == {
            "systems.cc-kmc.points.faultfree.throughput_rps": 500.0,
            "systems.cc-kmc.points.crashy.throughput_rps": 400.0,
        }

    def test_dump_load_round_trip_sorted(self, tmp_path):
        rec = make_record({"m": 1.0})
        path = tmp_path / "BENCH_fig2.json"
        dump_record(rec, path)
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == load_record(path)
        # sorted keys: "data" before "git_sha" before "metrics"
        assert text.index('"data"') < text.index('"git_sha"') \
            < text.index('"metrics"')


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------
class TestCompare:
    def test_clean_pass(self):
        base = make_record({"a": 100.0, "b": 50.0})
        cur = make_record({"a": 99.0, "b": 51.0})
        result = compare_records(cur, base)
        assert result.ok
        assert result.compared == 2
        assert "ok — no metric regressed" in render_compare(result)

    def test_exactly_ten_percent_drop_fails(self):
        """The acceptance bar: a synthetic 10% regression exits nonzero —
        the boundary is inclusive."""
        base = make_record({"a": 100.0})
        cur = make_record({"a": 90.0})
        result = compare_records(cur, base, threshold=0.10)
        assert not result.ok
        assert result.regressions[0]["metric"] == "a"
        assert "REGRESSION" in render_compare(result)

    def test_improvement_never_fails(self):
        base = make_record({"a": 100.0})
        cur = make_record({"a": 140.0})
        result = compare_records(cur, base)
        assert result.ok
        assert result.improvements

    def test_missing_metric_fails(self):
        base = make_record({"a": 100.0, "gone": 10.0})
        cur = make_record({"a": 100.0})
        result = compare_records(cur, base)
        assert not result.ok
        assert result.missing == ["gone"]
        assert "MISSING gone" in render_compare(result)

    def test_params_digest_mismatch_fails(self):
        base = make_record({"a": 100.0}, params={"scale": 0.02})
        cur = make_record({"a": 100.0}, params={"scale": 0.05})
        result = compare_records(cur, base)
        assert not result.ok and result.params_mismatch
        assert "params digest mismatch" in render_compare(result)

    def test_zero_baseline_metric_is_skipped(self):
        base = make_record({"a": 0.0})
        cur = make_record({"a": 0.0})
        result = compare_records(cur, base)
        assert result.ok and result.compared == 0

    def test_threshold_validation(self):
        base = make_record({"a": 1.0})
        with pytest.raises(ValueError):
            compare_records(base, base, threshold=0.0)
        with pytest.raises(ValueError):
            compare_records(base, base, threshold=1.0)


# ---------------------------------------------------------------------------
# CLI gate
# ---------------------------------------------------------------------------
class TestCliGate:
    def _write(self, tmp_path, name, metrics, params=None):
        path = tmp_path / name
        dump_record(make_record(metrics, params=params), path)
        return path

    def test_synthetic_regression_exits_nonzero(self, tmp_path, capsys):
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        self._write(baselines, "BENCH_fig2.json", {"a": 100.0})
        rec = self._write(tmp_path, "BENCH_fig2.json", {"a": 89.0})
        assert bench_main([
            "compare", str(rec), "--baselines", str(baselines),
        ]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_passing_run_exits_zero(self, tmp_path, capsys):
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        self._write(baselines, "BENCH_fig2.json", {"a": 100.0})
        rec = self._write(tmp_path, "BENCH_fig2.json", {"a": 95.0})
        assert bench_main([
            "compare", str(rec), "--baselines", str(baselines),
        ]) == 0

    def test_missing_baseline_skips(self, tmp_path, capsys):
        rec = self._write(tmp_path, "BENCH_new.json", {"a": 1.0})
        empty = tmp_path / "baselines"
        empty.mkdir()
        assert bench_main([
            "compare", str(rec), "--baselines", str(empty),
        ]) == 0
        assert "no baseline" in capsys.readouterr().out

    def test_exit_codes_are_distinct_and_pinned(self, tmp_path, capsys):
        """The documented contract: 0 clean / 1 regression / 2 usage,
        and a skipped record never hides a regression."""
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        self._write(baselines, "BENCH_ok.json", {"a": 100.0})
        ok = self._write(tmp_path, "BENCH_ok.json", {"a": 100.0})
        self._write(baselines, "BENCH_bad.json", {"a": 100.0})
        bad = self._write(tmp_path, "BENCH_bad.json", {"a": 50.0})
        orphan = self._write(tmp_path, "BENCH_orphan.json", {"a": 1.0})

        assert bench_main([
            "compare", str(ok), "--baselines", str(baselines),
        ]) == 0
        assert bench_main([
            "compare", str(bad), "--baselines", str(baselines),
        ]) == 1
        assert bench_main([
            "compare", str(ok), "--all", "--baselines", str(baselines),
        ]) == 2
        assert bench_main([
            "compare", str(bad), str(orphan),
            "--baselines", str(baselines),
        ]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("threshold", ["1.5", "0", "1", "-0.1", "nan",
                                           "ten"])
    def test_bad_threshold_is_a_usage_error(self, tmp_path, capsys,
                                            threshold):
        """A bad --threshold is a usage error, raised before any record
        is read, so it cannot pass silently when no record has a
        baseline."""
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        self._write(baselines, "BENCH_x.json", {"a": 100.0})
        gated = self._write(tmp_path, "BENCH_x.json", {"a": 100.0})
        orphan = self._write(tmp_path, "BENCH_orphan.json", {"a": 1.0})
        for rec in (gated, orphan):
            with pytest.raises(SystemExit) as exc:
                bench_main([
                    "compare", str(rec), "--baselines", str(baselines),
                    "--threshold", threshold,
                ])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert "--threshold" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("side", ["current", "baseline"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_metric_exits_one(self, tmp_path, capsys, side,
                                         bad):
        """No ratio test can judge NaN (every comparison is false) or inf
        (an inf run would read as "improved"), so either side fails."""
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        values = {"current": 100.0, "baseline": 100.0, side: float(bad)}
        self._write(baselines, "BENCH_x.json", {"a": values["baseline"]})
        rec = self._write(tmp_path, "BENCH_x.json", {"a": values["current"]})
        assert bench_main([
            "compare", str(rec), "--baselines", str(baselines),
        ]) == 1
        assert "NOT FINITE a" in capsys.readouterr().out

    def test_unreadable_record_is_a_usage_error(self, tmp_path, capsys):
        """Cannot-read-your-input must not masquerade as a regression."""
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        assert bench_main([
            "compare", str(tmp_path / "missing.json"),
            "--baselines", str(baselines),
        ]) == 2
        garbage = tmp_path / "BENCH_garbage.json"
        garbage.write_text("not json {")
        assert bench_main([
            "compare", str(garbage), "--baselines", str(baselines),
        ]) == 2
        # A corrupt committed baseline is also a usage error, not a pass.
        self._write(tmp_path, "BENCH_ok.json", {"a": 100.0})
        (baselines / "BENCH_ok.json").write_text("not json {")
        assert bench_main([
            "compare", str(tmp_path / "BENCH_ok.json"),
            "--baselines", str(baselines),
        ]) == 2
        err = capsys.readouterr().err
        assert "cannot read record" in err
        assert "cannot read baseline" in err

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            bench_main(["compare", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert "2  usage error" in out

    def test_custom_threshold(self, tmp_path):
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        self._write(baselines, "BENCH_x.json", {"a": 100.0})
        rec = self._write(tmp_path, "BENCH_x.json", {"a": 94.0})
        assert bench_main([
            "compare", str(rec), "--baselines", str(baselines),
            "--threshold", "0.05",
        ]) == 1
        assert bench_main([
            "compare", str(rec), "--baselines", str(baselines),
            "--threshold", "0.10",
        ]) == 0


# ---------------------------------------------------------------------------
# compare --all
# ---------------------------------------------------------------------------
class TestCompareAll:
    """`compare --all` gates every BENCH_*.json in one invocation."""

    def _write(self, tmp_path, name, metrics, params=None):
        path = tmp_path / name
        dump_record(make_record(metrics, params=params), path)
        return path

    def test_all_gates_every_record_in_dir(self, tmp_path, capsys):
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        self._write(baselines, "BENCH_a.json", {"m": 100.0})
        self._write(baselines, "BENCH_b.json", {"m": 100.0})
        self._write(tmp_path, "BENCH_a.json", {"m": 99.0})
        self._write(tmp_path, "BENCH_b.json", {"m": 101.0})
        # Only BENCH_*.json is picked up, not other JSON lying around.
        (tmp_path / "not-a-record.json").write_text("{}")
        assert bench_main([
            "compare", "--all", "--dir", str(tmp_path),
            "--baselines", str(baselines),
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("no metric regressed") == 2

    def test_all_trips_on_any_regression(self, tmp_path, capsys):
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        self._write(baselines, "BENCH_ok.json", {"m": 100.0})
        self._write(baselines, "BENCH_bad.json", {"m": 100.0})
        self._write(tmp_path, "BENCH_ok.json", {"m": 100.0})
        self._write(tmp_path, "BENCH_bad.json", {"m": 50.0})
        assert bench_main([
            "compare", "--all", "--dir", str(tmp_path),
            "--baselines", str(baselines),
        ]) == 1
        capsys.readouterr()

    def test_all_skips_unbaselined_records(self, tmp_path, capsys):
        """The CI semantics: ring/sweep-smoke records have no
        committed baseline and must stay ungated under --all."""
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        self._write(baselines, "BENCH_gated.json", {"m": 100.0})
        self._write(tmp_path, "BENCH_gated.json", {"m": 100.0})
        self._write(tmp_path, "BENCH_sweep_smoke.json", {"m": 1.0})
        assert bench_main([
            "compare", "--all", "--dir", str(tmp_path),
            "--baselines", str(baselines),
        ]) == 0
        assert "no baseline" in capsys.readouterr().out

    def test_all_with_records_is_usage_error(self, tmp_path, capsys):
        rec = self._write(tmp_path, "BENCH_x.json", {"m": 1.0})
        assert bench_main(["compare", str(rec), "--all"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_no_records_and_no_all_is_usage_error(self, capsys):
        assert bench_main(["compare"]) == 2
        assert "no records" in capsys.readouterr().err

    def test_all_over_empty_dir_is_usage_error(self, tmp_path, capsys):
        """Zero matches must not masquerade as a clean gate."""
        assert bench_main([
            "compare", "--all", "--dir", str(tmp_path),
        ]) == 2
        assert "no BENCH_*.json" in capsys.readouterr().err


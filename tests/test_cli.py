"""Tests for the experiments CLI."""

import numpy as np
import pytest

from repro.experiments import cli
from repro.obs.schema import OUTPUT_SCHEMA_VERSION
from repro.traces import Trace, TraceSpec


def tiny_trace(n_files=8, n_requests=150, seed=2):
    rng = np.random.default_rng(seed)
    return Trace(
        spec=TraceSpec("tiny", n_files, n_requests, 16.0),
        sizes_kb=np.full(n_files, 16.0),
        requests=rng.integers(0, n_files, size=n_requests),
    )


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "a6" in out

    def test_no_args_lists(self, capsys):
        assert cli.main([]) == 0
        assert "artifacts:" in capsys.readouterr().out

    def test_unknown_artifact(self, capsys):
        assert cli.main(["fig99"]) == 2
        assert "unknown artifact" in capsys.readouterr().err

    def test_table1_renders(self, capsys):
        assert cli.main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "# table1 #" in out

    def test_simulation_artifact_with_tiny_workload(self, capsys, monkeypatch):
        from repro.experiments import defaults

        monkeypatch.setattr(defaults, "workload", lambda name: tiny_trace())
        monkeypatch.setattr(defaults, "NUM_CLIENTS", 4)
        monkeypatch.setattr(
            defaults, "memory_points_mb", lambda points=None: [0.125]
        )
        assert cli.main(["fig6a"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6a" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("argv, message", [
        (["run", "--system", "press", "--nodes", "2", "--mem-mb"],
         "must be positive and finite"),
        (["run", "--system", "cc-kmc", "--mem-mb"],
         "must be positive and finite"),
        (["chaos", "--system", "press", "--mem-mb"],
         "must be positive and finite"),
        (["analyze", "trace.jsonl", "--timeseries-out", "ts.json",
          "--window-ms"], "must be positive and finite"),
        (["chaos", "--crashes-per-node"], "must be >= 0 and finite"),
    ], ids=["run-press", "run-cc-kmc", "chaos", "analyze", "chaos-crashes"])
    def test_non_finite_value_is_a_usage_error(self, argv, message, value,
                                               capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + [value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{message}, got {value}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["run", "--nodes", "2.5"],
         "argument --nodes: invalid int value: '2.5'"),
        (["chaos", "--link-drops", "x"],
         "argument --link-drops: invalid int value: 'x'"),
        (["analyze", "trace.jsonl", "--window-ms", "abc"],
         "argument --window-ms: invalid float value: 'abc'"),
    ], ids=["run-nodes", "chaos-link-drops", "analyze-window-ms"])
    def test_unparsable_value_names_its_type(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_artifact_registry_complete(self):
        expected = {
            "table1", "table2",
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6a", "fig6b",
            "fig_ring",
            "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "a10",
        }
        assert set(cli.ARTIFACTS) == expected


class TestEnvKnobs:
    @pytest.fixture
    def unread_knobs(self, monkeypatch):
        """Forget the workload knobs already read, so the command under
        test reads them from the environment it sets."""
        from repro.experiments import defaults

        for name in ("SCALE", "NUM_REQUESTS", "NUM_CLIENTS"):
            monkeypatch.delattr(defaults, name, raising=False)
        for name in ("REPRO_FULL", "REPRO_SCALE", "REPRO_REQUESTS",
                     "REPRO_CLIENTS", "REPRO_WORKERS"):
            monkeypatch.delenv(name, raising=False)

    @pytest.mark.parametrize("name, value, argv", [
        ("REPRO_WORKERS", "0", ["fig6b"]),
        ("REPRO_WORKERS", "abc", ["sweep"]),
        ("REPRO_SCALE", "abc", ["run"]),
        ("REPRO_SCALE", "nan", ["run"]),
        ("REPRO_SCALE", "0", ["run"]),
        ("REPRO_CLIENTS", "0", ["run"]),
        ("REPRO_REQUESTS", "-5", ["run"]),
        ("REPRO_FULL", "yes", ["run"]),
    ])
    def test_bad_knob_is_a_usage_error(
        self, name, value, argv, unread_knobs, monkeypatch, capsys
    ):
        monkeypatch.setenv(name, value)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and name in err and repr(value) in err

    @pytest.mark.parametrize("value, expected", [
        ("0", "scale=0.02 requests=10000"),
        ("1", "scale=1 requests=0"),
    ])
    def test_full_knob_is_zero_or_one(
        self, value, expected, unread_knobs, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_FULL", value)
        assert cli.main(["list"]) == 0
        assert expected in capsys.readouterr().out

    def test_knob_range_edges_are_accepted(self, unread_knobs, monkeypatch):
        from repro.experiments import defaults

        monkeypatch.setenv("REPRO_SCALE", "1e-3")
        monkeypatch.setenv("REPRO_REQUESTS", "0")  # the trace's own length
        monkeypatch.setenv("REPRO_CLIENTS", "1")
        assert (defaults.SCALE, defaults.NUM_REQUESTS,
                defaults.NUM_CLIENTS) == (1e-3, 0, 1)

    def test_bad_knob_does_not_break_the_import(self):
        """The knobs are read on use, so the CLI itself still starts."""
        import os
        import subprocess
        import sys

        env = dict(os.environ, REPRO_SCALE="abc")
        env.pop("REPRO_FULL", None)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli", "run"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: REPRO_SCALE must be positive and " \
            "finite, got 'abc'\n"

    def test_sweep_runs_a_repeated_workload_once(self, capsys, monkeypatch):
        from repro.experiments import defaults

        monkeypatch.setattr(defaults, "workload", lambda name: tiny_trace())
        monkeypatch.setattr(defaults, "NUM_CLIENTS", 4)
        monkeypatch.setattr(
            defaults, "memory_points_mb", lambda points=None: [0.125]
        )
        assert cli.main(["sweep", "--workload", "rutgers", "--workload",
                         "rutgers", "--nodes", "2", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "4 (1 traces x 4 systems x 1 memory points)" in out


class TestRunAndAnalyzeCli:
    @pytest.fixture()
    def tiny_defaults(self, monkeypatch):
        from repro.experiments import defaults

        monkeypatch.setattr(defaults, "workload", lambda name: tiny_trace())
        monkeypatch.setattr(defaults, "NUM_CLIENTS", 4)

    def test_run_profile_prints_report(self, capsys, tiny_defaults, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert cli.main([
            "run", "--profile", "--mem-mb", "0.25",
            "--trace", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "critical-path profile" in out
        assert "total = mean response" in out
        assert "binding resource:" in out
        assert trace.exists() and metrics.exists()

    def test_analyze_all_outputs(self, capsys, tiny_defaults, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert cli.main([
            "run", "--profile", "--mem-mb", "0.25",
            "--trace", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        capsys.readouterr()

        perfetto = tmp_path / "perfetto.json"
        ts_out = tmp_path / "ts.json"
        assert cli.main([
            "analyze", str(trace), str(metrics),
            "--report", "--perfetto", str(perfetto),
            "--timeseries-out", str(ts_out), "--top", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "binding resource:" in out
        assert "top 2 slowest" in out
        # Both exports are valid JSON with the expected top-level shape.
        import json

        doc = json.loads(perfetto.read_text())
        assert "traceEvents" in doc and doc["traceEvents"]
        ts = json.loads(ts_out.read_text())
        assert ts["windows"]

    def test_analyze_defaults_to_report(self, capsys, tiny_defaults, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert cli.main([
            "run", "--profile", "--mem-mb", "0.25", "--trace", str(trace),
        ]) == 0
        capsys.readouterr()
        assert cli.main(["analyze", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "critical-path attribution" in out
        assert "dominant phase group" in out  # no metrics file given

    def test_run_cachestats_dumps_and_summarizes(
        self, capsys, tiny_defaults, tmp_path
    ):
        dump = tmp_path / "cachescope.jsonl"
        assert cli.main([
            "run", "--mem-mb", "0.25", "--cachestats", str(dump),
        ]) == 0
        out = capsys.readouterr().out
        assert "duplicate share" in out and "violations=" in out
        assert dump.exists()
        import json

        first = json.loads(dump.read_text().splitlines()[0])
        assert first["kind"] == "summary"
        assert "violations" in first["totals"]

    def test_analyze_requires_trace(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze"])
        assert exc.value.code == 2
        assert "TRACE" in capsys.readouterr().err

    def test_analyze_json_stdout_and_file(
        self, capsys, tiny_defaults, tmp_path
    ):
        import json

        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert cli.main([
            "run", "--mem-mb", "0.25",
            "--trace", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        capsys.readouterr()

        assert cli.main([
            "analyze", str(trace), str(metrics), "--json", "-",
        ]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["schema_version"] == OUTPUT_SCHEMA_VERSION
        assert doc["kind"] == "attribution"
        assert doc["requests"] > 0
        assert "phase_means_ms" in doc and "by_class" in doc
        assert doc["binding_resource"] is not None
        # --json alone suppresses the default text report.
        assert "critical-path attribution" not in out

        json_out = tmp_path / "attr.json"
        assert cli.main([
            "analyze", str(trace), "--json", str(json_out),
        ]) == 0
        doc = json.loads(json_out.read_text())
        assert doc["binding_resource"] is None  # no metrics file given

    def test_verbose_flag_stripped(self, capsys):
        assert cli.main(["-v", "list"]) == 0
        assert "artifacts:" in capsys.readouterr().out

    def test_run_without_profile_has_no_report(
        self, capsys, tiny_defaults, tmp_path
    ):
        assert cli.main(["run", "--mem-mb", "0.25"]) == 0
        assert "critical-path profile" not in capsys.readouterr().out

    def test_analyze_diff(self, capsys, tiny_defaults, tmp_path):
        import json

        trace = tmp_path / "trace.jsonl"
        assert cli.main([
            "run", "--profile", "--mem-mb", "0.25", "--trace", str(trace),
        ]) == 0
        attr = tmp_path / "attr.json"
        assert cli.main(["analyze", str(trace), "--json", str(attr)]) == 0
        capsys.readouterr()
        # Attribution JSON on one side, raw trace JSONL on the other.
        diff_out = tmp_path / "diff.json"
        assert cli.main([
            "analyze", "diff", str(attr), str(trace),
            "--json", str(diff_out),
        ]) == 0
        out = capsys.readouterr().out
        assert "conservation check" in out
        assert "mean response unchanged" in out
        doc = json.loads(diff_out.read_text())
        assert doc["kind"] == "diff"
        assert doc["delta_ms"] == pytest.approx(0.0, abs=1e-9)
        assert abs(doc["conservation_residual_ms"]) < 1e-9

    def test_analyze_diff_bad_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all {")
        assert cli.main(["analyze", "diff", str(bad), str(bad)]) == 2
        assert "cannot read input" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ['{"a": 1}', "[3]"],
                             ids=["no-span-fields", "not-an-object"])
    def test_analyze_malformed_row_is_a_usage_error(self, capsys, tmp_path,
                                                    row):
        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"span": 1, "trace": 1, "name": "client", '
                         '"start": 0.0}\n' + row + "\n")
        assert cli.main(["analyze", str(trace)]) == 2
        err = capsys.readouterr().err
        assert f"analyze: cannot read input: {trace}:2: not a span " \
               f"record" in err
        assert "Traceback" not in err


class TestChaosCli:
    @pytest.fixture()
    def tiny_defaults(self, monkeypatch):
        from repro.experiments import defaults

        monkeypatch.setattr(defaults, "workload", lambda name: tiny_trace())
        monkeypatch.setattr(defaults, "NUM_CLIENTS", 4)

    def test_chaos_generates_runs_and_archives(
        self, capsys, tiny_defaults, tmp_path
    ):
        plan_out = tmp_path / "plan.json"
        trace = tmp_path / "chaos.jsonl"
        metrics = tmp_path / "metrics.json"
        assert cli.main([
            "chaos", "--system", "cc-kmc", "--nodes", "3",
            "--mem-mb", "0.25", "--crashes-per-node", "2",
            "--link-drops", "1", "--disk-stalls", "1",
            "--plan-out", str(plan_out),
            "--trace", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "fault plan" in out and "fault-free" in out
        assert plan_out.exists() and trace.exists() and metrics.exists()

    def test_chaos_replays_archived_plan(self, capsys, tiny_defaults, tmp_path):
        plan_out = tmp_path / "plan.json"
        assert cli.main([
            "chaos", "--system", "press", "--nodes", "3",
            "--mem-mb", "0.25", "--plan-out", str(plan_out),
        ]) == 0
        capsys.readouterr()
        assert cli.main([
            "chaos", "--system", "press", "--nodes", "3",
            "--mem-mb", "0.25", "--plan", str(plan_out),
        ]) == 0
        assert "replaying" in capsys.readouterr().out

    def test_chaos_missing_plan_file_errors(self, capsys, tiny_defaults):
        assert cli.main([
            "chaos", "--plan", "/nonexistent/plan.json",
        ]) == 2
        assert "plan" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("event, nodes", [
        ({"kind": "crash", "at_ms": 5.0, "node": 3}, 2),
        ({"kind": "link_down", "at_ms": 5.0, "node": 0, "peer": 4}, 4),
        ({"kind": "crash", "at_ms": 5.0, "node": -1}, 4),
        ({"kind": "crash", "at_ms": float("nan"), "node": 0}, 4),
        ({"kind": "disk_stall", "at_ms": 5.0, "node": 0,
          "extra_ms": float("nan")}, 4),
    ], ids=["node-beyond-cluster", "peer-beyond-cluster", "negative-node",
            "nan-time", "nan-stall"])
    def test_chaos_bad_plan_is_rejected_before_any_run(
        self, capsys, tiny_defaults, tmp_path, monkeypatch, event, nodes
    ):
        import json

        from repro.experiments import runner

        def no_run(*args, **kwargs):
            raise AssertionError("a bad plan must not reach a run")

        monkeypatch.setattr(runner, "run_experiment", no_run)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"events": [event]}))
        assert cli.main([
            "chaos", "--nodes", str(nodes), "--plan", str(plan),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("chaos: cannot load plan: ")
        assert len(captured.err.splitlines()) == 1

    def test_chaos_profile_attributes_fault_time(
        self, capsys, tiny_defaults, tmp_path
    ):
        assert cli.main([
            "chaos", "--system", "cc-kmc", "--nodes", "3",
            "--mem-mb", "0.25", "--crashes-per-node", "2", "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "critical-path profile" in out

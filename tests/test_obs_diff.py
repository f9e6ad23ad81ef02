"""Tests for differential attribution (repro.obs.diff) and the shared
versioned output schema (repro.obs.schema)."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.bench import mismatches
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.obs import Observability
from repro.obs.analyze import attribute, attribution_to_dict
from repro.obs.diff import diff_attributions, load_attribution
from repro.obs.reports import render_diff_report
from repro.obs.schema import (
    OUTPUT_SCHEMA_VERSION,
    REPORT_KINDS,
    as_report,
    check_report,
)
from repro.traces import datasets

ROOT = pathlib.Path(__file__).resolve().parent.parent
ATTR_BASELINE = ROOT / "benchmarks" / "baselines" / "ATTR_cc-kmc_rutgers.json"


def _attr(mean, phases, residual=0.0, requests=100, by_class=None,
          binding=None):
    return as_report("attribution", {
        "requests": requests,
        "mean_response_ms": mean,
        "mean_residual_ms": residual,
        "phase_means_ms": phases,
        "by_class": by_class or {},
        "binding_resource": binding,
    })


def _profiled_attr(mem_mb):
    cfg = ExperimentConfig(
        system="cc-kmc",
        trace=datasets.scaled("rutgers", 0.01, num_requests=400),
        num_nodes=4,
        mem_mb_per_node=mem_mb,
        num_clients=8,
        seed=0,
    )
    obs = Observability(profile=True)
    run_experiment(cfg, obs=obs)
    return obs, attribution_to_dict(attribute(obs.tracer.records))


class TestDiffAttributions:
    def test_perturbed_phase_is_named(self):
        base = _attr(6.0, {"disk.queue": 5.0, "cpu.service": 1.0})
        cur = _attr(8.0, {"disk.queue": 7.0, "cpu.service": 1.0})
        diff = diff_attributions(base, cur)
        assert diff["kind"] == "diff"
        assert diff["schema_version"] == OUTPUT_SCHEMA_VERSION
        assert diff["delta_ms"] == pytest.approx(2.0)
        assert diff["regressed_phase"] == "disk.queue"
        assert diff["improved_phase"] is None
        assert diff["conservation_residual_ms"] == pytest.approx(0.0,
                                                                 abs=1e-12)
        top = diff["top_regressions"][0]
        assert top["phase"] == "disk.queue"
        assert top["share"] == pytest.approx(1.0)

    def test_improvement_is_named(self):
        base = _attr(8.0, {"disk.queue": 7.0, "cpu.service": 1.0})
        cur = _attr(6.0, {"disk.queue": 5.0, "cpu.service": 1.0})
        diff = diff_attributions(base, cur)
        assert diff["delta_ms"] == pytest.approx(-2.0)
        assert diff["improved_phase"] == "disk.queue"
        assert diff["regressed_phase"] is None
        assert diff["top_improvements"][0]["share"] == pytest.approx(1.0)

    def test_phase_union_covers_both_sides(self):
        base = _attr(1.0, {"cpu.service": 1.0})
        cur = _attr(2.0, {"wire": 2.0})
        diff = diff_attributions(base, cur)
        assert diff["phase_delta_ms"] == {
            "cpu.service": -1.0, "wire": 2.0,
        }
        assert diff["conservation_residual_ms"] == pytest.approx(0.0)

    def test_by_class_and_binding_delta(self):
        base = _attr(
            6.0, {"disk.queue": 6.0},
            by_class={"disk": {"mean_response_ms": 10.0, "requests": 50}},
            binding={"resource": "disk"},
        )
        cur = _attr(
            7.0, {"disk.queue": 7.0},
            by_class={"disk": {"mean_response_ms": 12.0, "requests": 50},
                      "local": {"mean_response_ms": 0.5, "requests": 10}},
            binding={"resource": "cpu"},
        )
        diff = diff_attributions(base, cur)
        assert diff["by_class_delta"]["disk"]["delta_ms"] == pytest.approx(2.0)
        assert "local" in diff["by_class_delta"]
        assert diff["binding_resource"] == {
            "base": "disk", "current": "cpu", "changed": True,
        }

    def test_binding_change_needs_both_sides(self):
        """A side without metrics names no resource, so nothing moved."""
        with_metrics = _attr(6.0, {"disk.queue": 6.0},
                             binding={"resource": "disk"})
        without = _attr(6.0, {"disk.queue": 6.0})
        assert diff_attributions(with_metrics, without)["binding_resource"] == {
            "base": "disk", "current": None, "changed": False,
        }
        assert not diff_attributions(
            without, with_metrics)["binding_resource"]["changed"]

    def test_conservation_on_real_runs(self):
        """Memory pressure perturbation: deltas telescope exactly and the
        report names a disk-side phase (less cache -> more disk time)."""
        _, base = _profiled_attr(0.5)
        _, cur = _profiled_attr(0.25)
        diff = diff_attributions(base, cur)
        assert diff["delta_ms"] > 0.0
        assert abs(diff["conservation_residual_ms"]) < 1e-9
        assert diff["regressed_phase"].startswith(("disk", "master"))
        # Shares can exceed 1.0 when other phases improved, but every
        # named regression contributes positively.
        assert all(r["share"] > 0.0 for r in diff["top_regressions"])


    def test_conservation_adds_phase_deltas_left_to_right(self):
        """Python 3.12+'s compensated ``sum()`` would leave -2.2e-16 here."""
        base = _attr(0.0, {})
        cur = _attr(1.0, {"a": 1.0, "b": 1e-16, "c": 1e-16})
        assert diff_attributions(base, cur)["conservation_residual_ms"] == 0.0


class TestLoadAttribution:
    def test_loads_pretty_printed_json(self, tmp_path):
        doc = _attr(6.0, {"disk.queue": 6.0})
        path = tmp_path / "attr.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        assert load_attribution(path) == doc

    def test_loads_trace_jsonl_on_the_fly(self, tmp_path):
        obs, direct = _profiled_attr(0.5)
        path = tmp_path / "trace.jsonl"
        obs.tracer.dump_jsonl(path)
        loaded = load_attribution(path)
        assert loaded["kind"] == "attribution"
        assert loaded["mean_response_ms"] == pytest.approx(
            direct["mean_response_ms"]
        )

    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(as_report("fleet", {"cells": []})))
        with pytest.raises(ValueError, match="expected a"):
            load_attribution(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(json.JSONDecodeError):
            load_attribution(path)


class TestAttrBaseline:
    def test_explain_recipe_reproduces_committed_baseline(self, tmp_path):
        """The nightly explain step diffs against the committed ATTR
        baseline, so the recipe must reproduce it: the same request
        counts, classes and binding resource, every float within 1e-9,
        by the rule the bench gate applies to its records.  The
        analysis adds floats left to right (builtin ``sum()``
        compensates rounding from Python 3.12 on), so the attribution
        of one trace is byte-identical on every interpreter; the 1e-9
        is the gate's margin, not a known rounding difference.
        Re-bless it on purpose (README "Explaining a regression") when
        attribution changes.  Workload knobs from the environment must
        not leak into the recipe."""
        env = {k: v for k, v in os.environ.items()
               if k not in ("REPRO_SCALE", "REPRO_FULL")}
        env.update(
            REPRO_REQUESTS="800", REPRO_CLIENTS="16",
            PYTHONPATH=os.pathsep.join(
                filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
            ),
        )
        cli = [sys.executable, "-m", "repro.experiments.cli"]
        for args in (
            ["run", "--system", "cc-kmc", "--nodes", "4", "--mem-mb", "0.5",
             "--profile", "--trace", "t.jsonl", "--metrics-out", "m.json"],
            ["analyze", "t.jsonl", "m.json", "--json", "attr.json"],
        ):
            proc = subprocess.run(cli + args, cwd=tmp_path, env=env,
                                  capture_output=True, text=True,
                                  timeout=300)
            assert proc.returncode == 0, proc.stderr
        assert mismatches(
            json.loads((tmp_path / "attr.json").read_text()),
            json.loads(ATTR_BASELINE.read_text()),
        ) == []


class TestRenderDiff:
    def test_regression_text(self):
        base = _attr(6.0, {"disk.queue": 5.0, "cpu.service": 1.0})
        cur = _attr(8.0, {"disk.queue": 7.0, "cpu.service": 1.0})
        text = render_diff_report(diff_attributions(base, cur))
        assert "conservation check" in text
        assert "regression explained by: disk.queue" in text
        assert "total = Δ mean response" in text

    def test_no_change_text(self):
        base = _attr(6.0, {"disk.queue": 6.0})
        text = render_diff_report(diff_attributions(base, base))
        assert "mean response unchanged" in text


class TestOutputSchema:
    def test_round_trip_all_kinds(self):
        """Satellite contract: every report kind shares one versioned
        envelope and survives a JSON round trip."""
        for kind in REPORT_KINDS:
            doc = as_report(kind, {"payload": [1, 2, 3]})
            assert doc["schema_version"] == OUTPUT_SCHEMA_VERSION
            assert doc["kind"] == kind
            back = json.loads(json.dumps(doc, sort_keys=True))
            assert back == doc
            assert check_report(back) == kind
            assert check_report(back, kind) == kind

    def test_kind_mismatch_rejected(self):
        doc = as_report("fleet", {})
        with pytest.raises(ValueError, match="expected a"):
            check_report(doc, "attribution")

    def test_unknown_version_rejected(self):
        doc = as_report("diff", {})
        doc["schema_version"] = OUTPUT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            check_report(doc)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            as_report("bogus", {})
        doc = as_report("diff", {})
        doc["kind"] = "bogus"
        with pytest.raises(ValueError):
            check_report(doc)

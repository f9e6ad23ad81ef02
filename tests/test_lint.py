"""Tests for the simlint static-analysis suite (src/repro/lint).

Each per-file rule gets paired good/bad fixtures, the pragma contract
(disable / ordered / SL00 hygiene) is exercised directly, and the JSON
report shape is pinned.  The suppression-staleness audit (SL08) runs
over small synthetic projects written to a tmp dir, through both
``lint_paths`` and the CLI.  The final test self-hosts the linter over
the full default path set — the repository must stay clean under its
own rules, with the staleness audit engaged.
"""

import dataclasses
import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    JSON_SCHEMA_VERSION,
    all_rules,
    lint_paths,
    lint_source,
    to_json_dict,
)
from repro.lint.__main__ import main as lint_main
from repro.lint.config import DEFAULT_PATHS, RULE_PATHS, path_matches
from repro.lint.engine import iter_python_files
from repro.lint.report import render_text

REPO_ROOT = Path(__file__).resolve().parent.parent

ALL_RULE_IDS = ["SL00", "SL01", "SL02", "SL03", "SL04", "SL05", "SL08"]

# A path inside every rule scope.
CORE = "src/repro/core/example.py"


def run(source, path=CORE):
    """Lint a source snippet; returns the list of findings."""
    return lint_source(path, textwrap.dedent(source), all_rules())


def write_project(tmp_path, monkeypatch, files):
    """Materialise ``files`` as a tmp project and chdir into it."""
    for rel, src in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(src), encoding="utf-8")
    monkeypatch.chdir(tmp_path)


def run_project(tmp_path, monkeypatch, files, *, paths=("src/repro",),
                full_run=False):
    """Lint a tmp project through ``lint_paths`` with every rule."""
    write_project(tmp_path, monkeypatch, files)
    findings, _files = lint_paths(list(paths), all_rules(), full_run=full_run)
    return findings


def rule_ids(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# SL01 — unordered iteration
# ---------------------------------------------------------------------------

class TestSL01:
    def test_set_literal_iteration_flagged(self):
        findings = run("""
            for x in {1, 2, 3}:
                print(x)
        """)
        assert rule_ids(findings) == ["SL01"]

    def test_dict_view_iteration_flagged(self):
        findings = run("""
            def f(d):
                for k, v in d.items():
                    yield k
        """)
        assert rule_ids(findings) == ["SL01"]

    def test_set_call_iteration_flagged(self):
        findings = run("""
            def f(xs):
                return [x for x in set(xs)]
        """)
        assert rule_ids(findings) == ["SL01"]

    def test_sorted_wrapper_clean(self):
        findings = run("""
            def f(d):
                for k in sorted(d.keys()):
                    yield k
                return [v for v in sorted(set(d))]
        """)
        assert findings == []

    def test_transparent_wrapper_still_flagged(self):
        findings = run("""
            def f(d):
                for i, kv in enumerate(d.items()):
                    yield i
        """)
        assert rule_ids(findings) == ["SL01"]

    def test_order_sensitive_consumer_flagged(self):
        findings = run("""
            def f(d):
                return list(d.values())
        """)
        assert rule_ids(findings) == ["SL01"]

    def test_order_insensitive_consumers_clean(self):
        findings = run("""
            def f(d):
                return max(d.values()), len(d), any(d.values())
        """)
        assert findings == []

    def test_ordered_pragma_accepted(self):
        findings = run("""
            def f(d):
                # simlint: ordered -- inserts are event-ordered.
                for k in d.keys():
                    yield k
        """)
        assert findings == []

    def test_out_of_scope_path_clean(self):
        findings = run("""
            for x in {1, 2}:
                print(x)
        """, path="src/repro/experiments/report.py")
        assert findings == []


# ---------------------------------------------------------------------------
# SL02 — wall clock / ambient randomness
# ---------------------------------------------------------------------------

class TestSL02:
    def test_wall_clock_flagged(self):
        findings = run("""
            import time
            t = time.time()
        """)
        assert rule_ids(findings) == ["SL02"]

    def test_datetime_now_flagged(self):
        findings = run("""
            from datetime import datetime
            t = datetime.now()
        """)
        assert rule_ids(findings) == ["SL02"]

    def test_bare_random_flagged(self):
        findings = run("""
            import random
            x = random.random()
        """)
        assert rule_ids(findings) == ["SL02"]

    def test_unseeded_default_rng_flagged(self):
        findings = run("""
            import numpy as np
            rng = np.random.default_rng()
        """)
        assert rule_ids(findings) == ["SL02"]

    def test_seeded_default_rng_clean(self):
        findings = run("""
            import numpy as np
            rng = np.random.default_rng(42)
        """)
        assert findings == []

    def test_monotonic_flagged(self):
        findings = run("""
            import time
            t = time.monotonic()
        """)
        assert rule_ids(findings) == ["SL02"]


# ---------------------------------------------------------------------------
# SL03 — float equality on time / byte quantities
# ---------------------------------------------------------------------------

class TestSL03:
    def test_time_equality_flagged(self):
        findings = run("""
            def f(now, deadline):
                return now == deadline
        """)
        assert rule_ids(findings) == ["SL03"]

    def test_kb_inequality_flagged(self):
        findings = run("""
            def f(used_kb):
                return used_kb != 0.0
        """)
        assert rule_ids(findings) == ["SL03"]

    def test_attribute_quantity_flagged(self):
        findings = run("""
            def f(self, other):
                return self.size_kb == other.size_kb
        """)
        assert rule_ids(findings) == ["SL03"]

    def test_non_quantity_names_clean(self):
        findings = run("""
            def f(policy, node_id):
                return policy == "kmc" and node_id == 3
        """)
        assert findings == []

    def test_ordering_comparisons_clean(self):
        findings = run("""
            def f(now, deadline):
                return now < deadline or now >= deadline
        """)
        assert findings == []

    def test_disable_pragma_with_reason(self):
        findings = run("""
            def f(age, current):
                # simlint: disable=SL03 -- same stored float, not arithmetic.
                return current == age
        """)
        assert findings == []


# ---------------------------------------------------------------------------
# SL04 — cache-internal reach-ins
# ---------------------------------------------------------------------------

class TestSL04:
    def test_reach_in_flagged(self):
        findings = run("""
            def flush(cache):
                return [blk for blk in cache._dirty]
        """)
        # _dirty iteration is a reach-in; the dict-as-set itself is
        # insertion-ordered so SL01 stays quiet.
        assert "SL04" in rule_ids(findings)

    def test_self_access_in_owner_file_clean(self):
        findings = run("""
            class BlockCache:
                def purge(self):
                    self._dirty.clear()
        """, path="src/repro/cache/blockcache.py")
        assert findings == []

    def test_self_access_outside_owner_clean(self):
        # `self._dirty` in a non-owner file is that class's own attribute,
        # not a reach into BlockCache.
        findings = run("""
            class Other:
                def reset(self):
                    self._dirty = {}
        """)
        assert findings == []


# ---------------------------------------------------------------------------
# SL05 — mutable default arguments
# ---------------------------------------------------------------------------

class TestSL05:
    @pytest.mark.parametrize("default", ["[]", "{}", "set()", "dict()",
                                         "list()", "bytearray()"])
    def test_mutable_default_flagged(self, default):
        findings = run(f"""
            def f(x={default}):
                return x
        """)
        assert rule_ids(findings) == ["SL05"]

    def test_defaultdict_default_flagged(self):
        findings = run("""
            import collections
            def f(x=collections.defaultdict(list)):
                return x
        """)
        assert rule_ids(findings) == ["SL05"]

    def test_immutable_defaults_clean(self):
        findings = run("""
            def f(a=(), b=None, c=0, d="x", e=frozenset()):
                return a, b, c, d, e
        """)
        assert findings == []

    def test_lambda_default_flagged(self):
        findings = run("""
            g = lambda x=[]: x
        """)
        assert rule_ids(findings) == ["SL05"]


# ---------------------------------------------------------------------------
# SL00 — suppression hygiene, pragma placement
# ---------------------------------------------------------------------------

class TestPragmas:
    def test_unjustified_disable_is_a_finding_and_does_not_suppress(self):
        findings = run("""
            import time
            t = time.time()  # simlint: disable=SL02
        """)
        assert sorted(rule_ids(findings)) == ["SL00", "SL02"]

    def test_malformed_disable_flagged(self):
        findings = run("""
            x = 1  # simlint: disable= -- empty rule list
        """)
        assert rule_ids(findings) == ["SL00"]

    def test_unknown_pragma_flagged(self):
        findings = run("""
            x = 1  # simlint: frobnicate -- not a directive
        """)
        assert rule_ids(findings) == ["SL00"]

    def test_own_line_pragma_governs_next_code_line(self):
        findings = run("""
            import time
            # simlint: disable=SL02 -- fixture exercising pragma placement.
            t = time.time()
        """)
        assert findings == []

    def test_trailing_pragma_governs_its_line(self):
        findings = run("""
            import time
            t = time.time()  # simlint: disable=SL02 -- fixture.
        """)
        assert findings == []

    def test_disable_does_not_leak_to_other_lines(self):
        findings = run("""
            import time
            t = time.time()  # simlint: disable=SL02 -- only this line.
            u = time.time()
        """)
        assert rule_ids(findings) == ["SL02"]

    def test_syntax_error_reported_as_sl00(self):
        findings = run("def broken(:\n")
        assert rule_ids(findings) == ["SL00"]

    def test_null_bytes_reported_as_sl00(self):
        findings = run("x = 1\x00\n")
        assert rule_ids(findings) == ["SL00"]


# ---------------------------------------------------------------------------
# SL08 — stale suppressions
# ---------------------------------------------------------------------------

class TestSL08:
    def test_stale_pragma_flagged_on_full_run(self, tmp_path, monkeypatch):
        findings = run_project(tmp_path, monkeypatch, {
            "src/repro/core/x.py": """
                X = 1  # simlint: disable=SL02 -- obsolete: the clock read moved.
            """,
        }, full_run=True)
        assert rule_ids(findings) == ["SL08"]
        assert "stale suppression" in findings[0].message

    def test_live_pragma_not_flagged(self, tmp_path, monkeypatch):
        findings = run_project(tmp_path, monkeypatch, {
            "src/repro/core/x.py": """
                import time
                T = time.time()  # simlint: disable=SL02 -- fixture: pragma is live.
            """,
        }, full_run=True)
        assert findings == []

    def test_partial_runs_do_not_audit(self, tmp_path, monkeypatch):
        findings = run_project(tmp_path, monkeypatch, {
            "src/repro/core/x.py": """
                X = 1  # simlint: disable=SL02 -- obsolete: nothing here.
            """,
        }, full_run=False)
        assert findings == []


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class TestReports:
    def _findings(self):
        return run("""
            import time
            t = time.time()
            for x in {1, 2}:
                print(x)
        """)

    def test_json_document_shape(self):
        findings = self._findings()
        doc = to_json_dict(findings, files_checked=1)
        assert set(doc) == {"schema", "tool", "findings", "summary"}
        assert doc["schema"] == JSON_SCHEMA_VERSION == 3
        assert doc["tool"] == "simlint"
        for item in doc["findings"]:
            assert set(item) == {"path", "line", "col", "rule", "message"}
            assert isinstance(item["line"], int) and item["line"] >= 1
        assert doc["summary"]["findings"] == len(findings) == 2
        assert doc["summary"]["files_checked"] == 1
        assert doc["summary"]["by_rule"] == {"SL01": 1, "SL02": 1}

    def test_findings_round_trip_through_schema3_json(self, tmp_path,
                                                      monkeypatch):
        # Findings from several files and rules, SL08 included.
        findings = run_project(tmp_path, monkeypatch, {
            "src/repro/core/a.py": "import time\nT = time.time()\n",
            "src/repro/sim/b.py": """
                X = 1  # simlint: disable=SL02 -- obsolete: nothing here.

                def f(x=[]):
                    return x
            """,
        }, full_run=True)
        assert rule_ids(findings) == ["SL02", "SL08", "SL05"]
        doc = json.loads(json.dumps(to_json_dict(findings, files_checked=2)))
        assert doc["schema"] == JSON_SCHEMA_VERSION == 3
        # The writer emits each Finding's fields, in the findings' order.
        assert doc["findings"] == [dataclasses.asdict(f) for f in findings]
        assert doc["summary"] == {
            "files_checked": 2, "findings": 3,
            "by_rule": {"SL02": 1, "SL08": 1, "SL05": 1}}

    def test_text_report_format(self):
        findings = self._findings()
        text = render_text(findings, files_checked=1)
        first = findings[0]
        assert f"{first.path}:{first.line}:{first.col}: {first.rule}" in text
        assert "2 finding(s) in 1 file" in text

    def test_text_report_clean(self):
        assert "clean" in render_text([], files_checked=3)

    def test_findings_sorted_by_location(self):
        findings = self._findings()
        assert findings == sorted(findings, key=lambda f: f.sort_key())


# ---------------------------------------------------------------------------
# CLI contract
# ---------------------------------------------------------------------------

class TestCLI:
    @pytest.mark.parametrize("spelling, code", [
        ("src/repro", 1),
        ("src/repro/", 1),
        ("./src/repro", 1),
        ("src/repro/core", 0),  # a subset: the audit must stay off
    ])
    def test_full_run_check_normalizes_path_spellings(
            self, tmp_path, monkeypatch, capsys, spelling, code):
        # The default set is src/repro + benchmarks; the spelling of
        # src/repro varies and benchmarks rides along.
        write_project(tmp_path, monkeypatch, {
            "src/repro/core/x.py": """
                X = 1  # simlint: disable=SL02 -- obsolete: nothing here.
            """,
            "benchmarks/bench_x.py": "Y = 2\n",
        })
        assert lint_main([spelling, "benchmarks"]) == code
        out = capsys.readouterr().out
        assert ("SL08" in out) == (code == 1)

    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        f = tmp_path / "repro" / "core" / "clean.py"
        f.parent.mkdir(parents=True)
        f.write_text("X = 1\n")
        assert lint_main([str(f)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        f = tmp_path / "repro" / "core" / "bad.py"
        f.parent.mkdir(parents=True)
        f.write_text("import time\nT = time.time()\n")
        assert lint_main([str(f)]) == 1
        assert "SL02" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, capsys):
        assert lint_main(["definitely/not/a/path.py"]) == 2

    def test_json_out_artifact(self, tmp_path, capsys):
        f = tmp_path / "repro" / "core" / "bad.py"
        f.parent.mkdir(parents=True)
        f.write_text("import time\nT = time.time()\n")
        out = tmp_path / "report.json"
        assert lint_main([str(f), "--json-out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["schema"] == JSON_SCHEMA_VERSION
        assert doc["summary"]["by_rule"] == {"SL02": 1}


# ---------------------------------------------------------------------------
# Rule docs — DESIGN.md §16 and the README table cover every rule
# ---------------------------------------------------------------------------

class TestRuleDocs:
    def test_design_and_readme_mention_every_rule(self):
        design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for rule_id in ALL_RULE_IDS:
            assert rule_id in design, f"{rule_id} missing from DESIGN.md"
            assert rule_id in readme, f"{rule_id} missing from README.md"


# ---------------------------------------------------------------------------
# Configuration & plumbing
# ---------------------------------------------------------------------------

class TestConfig:
    def test_path_matches_is_boundary_anchored(self):
        assert path_matches("src/repro/cache/lru.py", "repro/cache")
        assert not path_matches("src/repro/cache2/lru.py", "repro/cache")
        assert path_matches("repro/cache/lru.py", "repro/cache/lru.py")

    def test_rule_paths_are_pinned(self):
        # Pinned literally: a scope change changes the determinism
        # contract, so it must show up in review.  SL00 is unconditional
        # and has no scope.
        assert DEFAULT_PATHS == ("src/repro", "benchmarks")
        assert RULE_PATHS == {
            "SL01": ("repro/sim", "repro/core", "repro/cache", "repro/cluster",
                     "repro/press", "repro/obs/ledger.py", "repro/obs/fleet.py"),
            "SL02": ("repro", "benchmarks"),
            "SL03": ("repro/sim", "repro/core", "repro/cache", "repro/cluster",
                     "repro/press", "repro/obs"),
            "SL04": ("repro", "benchmarks"),
            "SL05": ("repro", "benchmarks"),
            "SL08": ("repro", "benchmarks"),
        }

    def test_iter_python_files_deduplicates(self, tmp_path):
        f = tmp_path / "a.py"
        f.write_text("X = 1\n")
        files = iter_python_files([str(tmp_path), str(f)])
        assert files == [f]


# ---------------------------------------------------------------------------
# Self-hosting: the repository obeys its own rules
# ---------------------------------------------------------------------------

class TestSelfHost:
    def test_full_run_is_clean_including_staleness_audit(self, capsys,
                                                         monkeypatch):
        # No explicit paths -> the default set (src/repro + benchmarks)
        # with every rule AND the SL08 staleness audit live.
        monkeypatch.chdir(REPO_ROOT)
        assert lint_main([]) == 0
        assert "clean" in capsys.readouterr().out

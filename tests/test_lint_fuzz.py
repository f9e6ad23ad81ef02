"""Hypothesis fuzzing for simlint: the linter never crashes and its
reports are deterministic.

Three properties, over two corpora:

* generated modules — small programs composed from statement templates
  biased toward the constructs the rules care about (sets, dict views,
  clocks, ambient randomness, quantity-named comparisons, pragmas) — lint
  cleanly in the sense that the linter returns findings rather than
  raising, and linting twice yields the identical report (fresh rule
  instances each time, so rule state cannot leak between runs);
* arbitrary text — including non-parsing garbage and null bytes — is
  reported as SL00, never an exception;
* the real repository corpus (every file under the default lint paths)
  is linted twice per file with identical results.

Full runs get the same treatment: synthetic two-module projects are
linted twice through ``lint_paths`` with every rule and the SL08
staleness pass live.
"""

import os
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.lint import all_rules, lint_paths, lint_source  # noqa: E402
from repro.lint.engine import iter_python_files  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# Generated-module strategy
# ---------------------------------------------------------------------------

_NAMES = st.sampled_from([
    "x", "data", "timeout_ms", "delay_s", "size_bytes", "total_kb",
    "rate_per_s", "nodes", "d", "TABLE",
])

_EXPRS = st.sampled_from([
    "0", "1.5", "'k'", "None", "{1, 2}", "[1, 2]", "{'a': 1}",
    "set(d)", "sorted(d)", "list(d.keys())", "d.items()",
    "time.time()", "random.random()", "random.Random(7)",
    "os.environ.get('REPRO_X')", "os.environ['HOME']",
    "timeout_ms + delay_s", "f0(x)", "x == 1.0", "node_ids(nodes)",
])

_HEADER = "import os\nimport random\nimport time\n"


@st.composite
def _statement(draw):
    kind = draw(st.integers(0, 6))
    n, e = draw(_NAMES), draw(_EXPRS)
    i = draw(st.integers(0, 3))
    if kind == 0:
        return f"{n} = {e}"
    if kind == 1:
        return f"def f{i}({n}=None):\n    return {e}"
    if kind == 2:
        return f"for {n} in {e}:\n    {n}2 = {e}"
    if kind == 3:
        return (f"class C{i}:\n    def m(self, {n}):\n"
                f"        self.{n} = {e}")
    if kind == 4:
        return f"if {n} == {e}:\n    pass"
    if kind == 5:
        rule = draw(st.integers(0, 9))
        return (f"# simlint: disable=SL0{rule} -- fuzz fixture\n"
                f"{n} = {e}")
    return f"with Pool(2) as pool:\n    pool.map(f{i}, {e})"


def _module(stmts):
    return _HEADER + "\n\n" + "\n\n".join(stmts) + "\n"


_MODULES = st.lists(_statement(), min_size=1, max_size=8).map(_module)


# ---------------------------------------------------------------------------
# Per-file layer
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(_MODULES)
def test_generated_modules_never_crash_and_lint_idempotently(src):
    first = lint_source("src/repro/core/fuzz.py", src, all_rules())
    second = lint_source("src/repro/core/fuzz.py", src, all_rules())
    assert first == second
    for f in first:
        assert f.rule.startswith("SL") and f.line >= 1


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=200))
def test_arbitrary_text_never_crashes(src):
    findings = lint_source("src/repro/core/fuzz.py", src, all_rules())
    # Unparsable input is a finding (SL00), never an exception.
    for f in findings:
        assert f.rule.startswith("SL")


# ---------------------------------------------------------------------------
# Full run (per-file rules + the SL08 staleness pass)
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_statement(), min_size=1, max_size=5),
       st.lists(_statement(), min_size=1, max_size=5))
def test_full_run_never_crashes_and_is_idempotent(stmts_a, stmts_b):
    with tempfile.TemporaryDirectory() as td:
        root = Path(td)
        for rel, stmts in (("src/repro/experiments/fa.py", stmts_a),
                           ("src/repro/sim/fb.py", stmts_b)):
            p = root / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(_module(stmts), encoding="utf-8")
        old = os.getcwd()
        os.chdir(td)
        try:
            runs = [lint_paths(["src/repro"], all_rules(), full_run=True)
                    for _ in range(2)]
        finally:
            os.chdir(old)
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Real repository corpus
# ---------------------------------------------------------------------------

_CORPUS = iter_python_files([str(REPO_ROOT / "src" / "repro"),
                             str(REPO_ROOT / "benchmarks")])


@pytest.mark.parametrize(
    "path", _CORPUS,
    ids=[p.relative_to(REPO_ROOT).as_posix() for p in _CORPUS])
def test_repo_corpus_lints_deterministically(path):
    rel = path.relative_to(REPO_ROOT).as_posix()
    src = path.read_text(encoding="utf-8")
    first = lint_source(rel, src, all_rules())
    second = lint_source(rel, src, all_rules())
    assert first == second

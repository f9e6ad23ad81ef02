"""simlint — determinism & cache-invariant static analysis for this repo.

An AST-based lint suite whose rules encode the properties the golden
traces, chaos replay, and CC-KMC invariant claims silently rely on.
Each file is parsed once and walked once by every rule in scope:

* **SL01** — no unordered set/dict iteration feeding simulation state
* **SL02** — no wall-clock or ambient randomness outside ``repro.sim.rng``
* **SL03** — no float ``==``/``!=`` on simulated time / byte quantities
* **SL04** — cache-state mutations only through the census code path
* **SL05** — no mutable default arguments
* **SL00** — suppression hygiene (pragmas must carry a justification)

A full run ends with one whole-run pass:

* **SL08** — stale suppressions: pragmas and allow entries must still
  suppress something, so the suppression inventory can only shrink

Run it with ``python -m repro.lint [paths...]``; configuration lives in
``[tool.simlint]`` in ``pyproject.toml``.  ``--explain SLxx`` prints a
rule's rationale and examples.  See DESIGN.md §16.
"""

from .config import LintConfig, load_config
from .docs import RULE_DOCS, RuleDoc, render_explain, rule_doc
from .engine import Finding, lint_paths, lint_source
from .report import (
    JSON_SCHEMA_VERSION, findings_from_json, render_text, to_json_dict,
)
from .rules import all_rules, rule_catalog

__all__ = [
    "LintConfig",
    "load_config",
    "Finding",
    "lint_paths",
    "lint_source",
    "render_text",
    "to_json_dict",
    "findings_from_json",
    "JSON_SCHEMA_VERSION",
    "all_rules",
    "rule_catalog",
    "RuleDoc",
    "RULE_DOCS",
    "rule_doc",
    "render_explain",
]

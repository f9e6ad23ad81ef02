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

* **SL08** — stale suppressions: pragmas must still suppress something,
  so the suppression inventory can only shrink

Run it with ``python -m repro.lint [paths...] [--json-out FILE]``.  Each
rule's path scope is the ``RULE_PATHS`` table in
:mod:`repro.lint.config`; the rationale is the rule's class docstring
and DESIGN.md §16.
"""

from .engine import Finding, lint_paths, lint_source
from .report import JSON_SCHEMA_VERSION, render_text, to_json_dict
from .rules import all_rules

__all__ = [
    "Finding",
    "lint_paths",
    "lint_source",
    "render_text",
    "to_json_dict",
    "JSON_SCHEMA_VERSION",
    "all_rules",
]

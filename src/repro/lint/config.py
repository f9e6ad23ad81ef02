"""simlint path scoping: the default lint roots and each rule's scope.

Every rule is *scoped*: it only applies to files whose project-relative
path matches one of its prefixes in :data:`RULE_PATHS`.  The table
encodes the determinism contract of this repository (see DESIGN.md §16)
and is the one place the scopes are set.
"""

from __future__ import annotations

__all__ = ["DEFAULT_PATHS", "RULE_PATHS", "path_matches", "rule_in_scope"]

#: Lint roots when the CLI is given no paths.  ``benchmarks/`` feeds the
#: provenance-stamped BENCH records, so it is linted with the same
#: determinism contract as the package itself.
DEFAULT_PATHS: tuple[str, ...] = ("src/repro", "benchmarks")

# Rule id -> path prefixes (project-relative, posix, anchored at
# directory boundaries) where the rule is enforced.  "repro" means the
# whole package.
RULE_PATHS: dict[str, tuple[str, ...]] = {
    # Unordered-iteration hygiene only matters where iteration order can
    # feed simulation state or provenance records: the kernel, the
    # protocol, the caches, the cluster model, the PRESS baseline, and
    # the run ledger with its fleet rollups.
    "SL01": ("repro/sim", "repro/core", "repro/cache", "repro/cluster", "repro/press",
             "repro/obs/ledger.py", "repro/obs/fleet.py"),
    "SL02": ("repro", "benchmarks"),
    "SL03": ("repro/sim", "repro/core", "repro/cache", "repro/cluster", "repro/press",
             "repro/obs"),
    "SL04": ("repro", "benchmarks"),
    "SL05": ("repro", "benchmarks"),
    # Stale-suppression audit: wherever pragmas may appear.
    "SL08": ("repro", "benchmarks"),
}


def rule_in_scope(rule_id: str, path: str) -> bool:
    """True when ``rule_id`` applies to ``path``.

    SL00 (suppression hygiene) is unconditional: a malformed pragma is a
    defect wherever it appears.
    """
    if rule_id == "SL00":
        return True
    return any(path_matches(path, scope) for scope in RULE_PATHS.get(rule_id, ()))


def path_matches(path: str, prefix: str) -> bool:
    """True when posix ``path`` contains ``prefix`` as a path prefix
    anchored at some directory boundary (``repro/cache`` matches
    ``src/repro/cache/lru.py`` but not ``src/repro/cache2/x.py``)."""
    hay = "/" + path.replace("\\", "/").strip("/") + "/"
    needle = "/" + prefix.replace("\\", "/").strip("/")
    return needle + "/" in hay or hay.endswith(needle + "/")

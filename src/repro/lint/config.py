"""simlint configuration: defaults, pyproject loading, path scoping.

Every rule is *scoped*: it only applies to files whose project-relative
path matches one of its configured prefixes, minus any explicit
allowlist entries.  The defaults below encode the determinism contract
of this repository (see DESIGN.md §16); ``[tool.simlint]`` in
``pyproject.toml`` can override any field so the contract lives next to
the rest of the project's tool configuration.

TOML loading uses :mod:`tomllib` where available (Python 3.11+) and
falls back to a minimal line-oriented parser that understands exactly
the subset ``[tool.simlint]`` uses (string lists and tables of string
lists) — this package must run on Python 3.9 without third-party
dependencies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Mapping, Sequence

__all__ = ["LintConfig", "load_config", "path_matches"]


# Rule id -> path prefixes (project-relative, posix) where the rule is
# enforced.  "repro" means the whole package.
_DEFAULT_RULE_PATHS: dict[str, tuple[str, ...]] = {
    # Unordered-iteration hygiene only matters where iteration order can
    # feed simulation state: the kernel, the protocol, the caches, the
    # cluster model and the PRESS baseline.
    "SL01": ("repro/sim", "repro/core", "repro/cache", "repro/cluster", "repro/press"),
    "SL02": ("repro", "benchmarks"),
    "SL03": ("repro/sim", "repro/core", "repro/cache", "repro/cluster", "repro/press",
             "repro/obs"),
    "SL04": ("repro", "benchmarks"),
    "SL05": ("repro", "benchmarks"),
    # Stale-suppression audit: wherever pragmas may appear.
    "SL08": ("repro", "benchmarks"),
}

# Rule id -> path prefixes exempt from the rule even inside its scope.
# Empty by default: SL08 treats an allow entry that suppresses nothing
# as stale, so entries exist only while they actually silence findings.
_DEFAULT_ALLOW_PATHS: dict[str, tuple[str, ...]] = {}

# Protected cache internals (SL04): attribute name -> file suffixes that
# own it.  A non-``self`` access to one of these attributes anywhere
# else is a reach-in that bypasses the single census code path.
_DEFAULT_PROTECTED_ATTRS: dict[str, tuple[str, ...]] = {
    "_masters": ("repro/cache/blockcache.py", "repro/cache/directory.py",
                 "repro/core/wholefile.py"),
    "_nonmasters": ("repro/cache/blockcache.py",),
    "_replicas": ("repro/core/wholefile.py",),
    "_dirty": ("repro/cache/blockcache.py",),
    "_ages": ("repro/cache/lru.py",),
    "_where": ("repro/press/filecache.py",),
    "_lru": ("repro/press/filecache.py",),
}

# Identifier regexes that mark an operand as a simulated-time or byte
# quantity for SL03 (float == / != is the census-drift bug class).
_DEFAULT_QUANTITY_PATTERNS: tuple[str, ...] = (
    r"(^|_)(time|now|age|ages|when|deadline|latency|elapsed|duration)($|_)",
    r"(^|_)(kb|ms|bytes|size_kb|sizes_kb)($|s?_|s?$)",
    r"_kb$",
    r"_ms$",
)


@dataclass(frozen=True)
class LintConfig:
    """Resolved simlint configuration."""

    #: Default lint roots when the CLI is given no paths.
    paths: tuple[str, ...] = ("src/repro", "benchmarks")
    rule_paths: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(_DEFAULT_RULE_PATHS))
    allow_paths: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(_DEFAULT_ALLOW_PATHS))
    protected_attrs: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(_DEFAULT_PROTECTED_ATTRS))
    quantity_patterns: tuple[str, ...] = _DEFAULT_QUANTITY_PATTERNS

    def rule_in_scope(self, rule_id: str, path: str) -> bool:
        """Scope check only, ignoring the allowlist (the engine applies
        allow entries at finding time so it can credit the entries that
        actually suppress something — SL08's staleness signal).

        SL00 (suppression hygiene) is unconditional: a malformed pragma
        is a defect wherever it appears.
        """
        if rule_id == "SL00":
            return True
        scopes = self.rule_paths.get(rule_id, ())
        return any(path_matches(path, scope) for scope in scopes)

    def allow_entry_for(self, rule_id: str, path: str) -> str | None:
        """The allowlist prefix exempting ``path`` from ``rule_id``, if any."""
        for ex in self.allow_paths.get(rule_id, ()):
            if path_matches(path, ex):
                return ex
        return None

    def quantity_regex(self) -> "re.Pattern[str]":
        return re.compile("|".join(f"(?:{p})" for p in self.quantity_patterns))


def path_matches(path: str, prefix: str) -> bool:
    """True when posix ``path`` contains ``prefix`` as a path prefix
    anchored at some directory boundary (``repro/cache`` matches
    ``src/repro/cache/lru.py`` but not ``src/repro/cache2/x.py``)."""
    hay = "/" + path.replace("\\", "/").strip("/") + "/"
    needle = "/" + prefix.replace("\\", "/").strip("/")
    return needle + "/" in hay or hay.endswith(needle + "/")


# -- pyproject loading --------------------------------------------------------

def _load_toml_table(pyproject: Path) -> dict[str, object]:
    """The ``[tool.simlint]`` table of ``pyproject.toml`` (may be empty)."""
    try:
        import tomllib  # Python 3.11+
    except ImportError:  # pragma: no cover - exercised only on py<3.11
        return _fallback_parse(pyproject.read_text(encoding="utf-8"))
    with pyproject.open("rb") as fh:
        data = tomllib.load(fh)
    tool = data.get("tool", {})
    table = tool.get("simlint", {}) if isinstance(tool, dict) else {}
    return table if isinstance(table, dict) else {}


def _fallback_parse(text: str) -> dict[str, object]:
    """Parse the ``[tool.simlint]`` subset on interpreters without tomllib.

    Understands ``[tool.simlint]`` / ``[tool.simlint.<sub>]`` headers and
    ``key = ["a", "b"]`` / ``key = "a"`` entries, which is the entire
    grammar this project's configuration uses.  Multi-line arrays are
    joined before parsing.
    """
    table: dict[str, object] = {}
    section: str | None = None
    pending = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip() if '"' not in raw else raw.strip()
        if not line:
            continue
        header = re.match(r"^\[(.+?)\]$", line)
        if header:
            name = header.group(1).strip()
            if name == "tool.simlint":
                section = ""
            elif name.startswith("tool.simlint."):
                section = name[len("tool.simlint."):]
            else:
                section = None
            pending = ""
            continue
        if section is None:
            continue
        pending += " " + line
        if pending.count("[") > pending.count("]"):
            continue  # unterminated multi-line array
        entry = re.match(r'^\s*([\w.\-]+)\s*=\s*(.+)$', pending.strip())
        pending = ""
        if not entry:
            continue
        key, value = entry.group(1), entry.group(2).strip()
        parsed: object
        if value.startswith("["):
            parsed = re.findall(r'"((?:[^"\\]|\\.)*)"', value)
        else:
            literal = re.match(r'^"((?:[^"\\]|\\.)*)"', value)
            parsed = literal.group(1) if literal else value
        target = table
        if section:
            target = table.setdefault(section, {})  # type: ignore[assignment]
            if not isinstance(target, dict):  # pragma: no cover - defensive
                continue
        target[key] = parsed
    return table


def _as_tuple(value: object) -> tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    if isinstance(value, Sequence):
        return tuple(str(v) for v in value)
    raise TypeError(f"expected string or list of strings, got {value!r}")


def _as_table(value: object, label: str) -> dict[str, tuple[str, ...]]:
    if not isinstance(value, dict):
        raise TypeError(f"[tool.simlint.{label}] must be a table")
    return {str(k): _as_tuple(v) for k, v in value.items()}


def load_config(root: Path | None = None) -> LintConfig:
    """Resolve configuration: code defaults overlaid by ``pyproject.toml``.

    ``root`` is the directory searched for ``pyproject.toml`` (defaults
    to the current working directory, then its parents).
    """
    base = (root or Path.cwd()).resolve()
    pyproject: Path | None = None
    for candidate in (base, *base.parents):
        if (candidate / "pyproject.toml").is_file():
            pyproject = candidate / "pyproject.toml"
            break
    if pyproject is None:
        return LintConfig()
    table = _load_toml_table(pyproject)
    kwargs: dict[str, object] = {}
    if "paths" in table:
        kwargs["paths"] = _as_tuple(table["paths"])
    if "rules" in table:
        merged = dict(_DEFAULT_RULE_PATHS)
        merged.update(_as_table(table["rules"], "rules"))
        kwargs["rule_paths"] = merged
    if "allow" in table:
        merged = dict(_DEFAULT_ALLOW_PATHS)
        merged.update(_as_table(table["allow"], "allow"))
        kwargs["allow_paths"] = merged
    if "protected" in table:
        merged = dict(_DEFAULT_PROTECTED_ATTRS)
        merged.update(_as_table(table["protected"], "protected"))
        kwargs["protected_attrs"] = merged
    if "quantity_patterns" in table:
        kwargs["quantity_patterns"] = _as_tuple(table["quantity_patterns"])
    return LintConfig(**kwargs)  # type: ignore[arg-type]

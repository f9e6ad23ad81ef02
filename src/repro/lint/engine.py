"""simlint rule engine: pragma parsing, visitor dispatch, file walking.

The engine parses each file once (AST + token stream), builds a single
node-type -> handlers dispatch table from the registered rules, and
walks the tree once regardless of how many rules are active.  Rules
never see files outside their path scope
(:data:`~repro.lint.config.RULE_PATHS`).  On full runs a final pass
(SL08) reports the pragmas that suppressed nothing.

Suppression contract (enforced — see :class:`~repro.lint.rules.SL00`):

``# simlint: disable=SL01 -- reason``
    Suppress the named rule(s) on this line.  The ``-- reason`` text is
    mandatory; a bare suppression is itself a finding.

``# simlint: ordered -- reason``
    Assert that the iteration flagged by SL01 on this line visits a
    container whose order is deterministic by construction (and say
    why).  This is deliberately distinct from ``disable=SL01``: it
    records a *proof obligation*, not an opt-out.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Iterable, Mapping, Sequence

from .config import rule_in_scope

__all__ = ["Finding", "FilePragmas", "LintContext", "Rule", "lint_source",
           "lint_paths"]

_PRAGMA_RE = re.compile(r"#\s*simlint\s*:\s*(?P<body>[^#]*)")
_RULE_ID_RE = re.compile(r"^SL\d{2}$")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


@dataclass(frozen=True)
class _Pragma:
    line: int  # line the pragma governs (next code line for own-line comments)
    src_line: int  # line the comment physically sits on (for SL00 reports)
    kind: str  # "disable" | "ordered"
    rules: tuple[str, ...]  # empty for "ordered"
    justified: bool
    malformed: str | None = None  # message when unparsable


class FilePragmas:
    """Per-line suppression / ordering pragmas for one file.

    Every successful suppression is recorded in ``used`` (indices into
    ``raw``): SL08 reports any well-formed, justified pragma that never
    suppressed anything as stale.  Callers must therefore only consult
    :meth:`disabled` / :meth:`ordered` when a finding would otherwise be
    emitted, never speculatively.
    """

    def __init__(self, pragmas: Iterable[_Pragma]):
        self._disable: dict[int, list[tuple[int, frozenset[str]]]] = {}
        self._ordered: dict[int, list[int]] = {}
        self.raw: list[_Pragma] = list(pragmas)
        self.used: set[int] = set()
        for idx, p in enumerate(self.raw):
            if p.malformed or not p.justified:
                continue  # unusable pragmas never suppress anything
            if p.kind == "disable":
                self._disable.setdefault(p.line, []).append(
                    (idx, frozenset(p.rules)))
            elif p.kind == "ordered":
                self._ordered.setdefault(p.line, []).append(idx)

    def disabled(self, rule_id: str, lines: Iterable[int]) -> bool:
        hit = False
        for ln in lines:
            for idx, rules in self._disable.get(ln, ()):
                if rule_id in rules:
                    self.used.add(idx)
                    hit = True
        return hit

    def ordered(self, lines: Iterable[int]) -> bool:
        hit = False
        for ln in lines:
            for idx in self._ordered.get(ln, ()):
                self.used.add(idx)
                hit = True
        return hit


def _parse_pragmas(source: str) -> list[_Pragma]:
    """Extract pragmas; an own-line pragma governs the next code line.

    A pragma in a trailing comment applies to its own (logical start)
    line.  A pragma on a comment-only line applies to the first
    following line that holds code — the natural reading of a comment
    placed above the construct it justifies, and the only ergonomic
    option when the flagged line is already at the line-length limit.
    """
    src_lines = source.splitlines()

    def _effective_line(line: int) -> int:
        text = src_lines[line - 1].lstrip() if line <= len(src_lines) else ""
        if not text.startswith("#"):
            return line  # trailing comment: governs its own line
        nxt = line + 1
        while nxt <= len(src_lines):
            following = src_lines[nxt - 1].strip()
            if following and not following.startswith("#"):
                return nxt
            nxt += 1
        return line

    pragmas: list[_Pragma] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [(tok.start[0], tok.string) for tok in tokens
                    if tok.type == tokenize.COMMENT]
    except tokenize.TokenizeError:  # pragma: no cover - ast.parse fails first
        return pragmas
    for raw_line, text in comments:
        line = _effective_line(raw_line)
        m = _PRAGMA_RE.search(text)
        if m is None:
            continue
        body = m.group("body").strip()
        directive, sep, reason = body.partition("--")
        directive = directive.strip()
        justified = bool(sep) and bool(reason.strip())
        if directive.startswith("disable"):
            _, eq, spec = directive.partition("=")
            rules = tuple(r.strip() for r in spec.split(",") if r.strip())
            bad = [r for r in rules if not _RULE_ID_RE.match(r)]
            if not eq or not rules or bad:
                pragmas.append(_Pragma(line, raw_line, "disable", rules, justified,
                                       malformed="disable pragma must name rules, "
                                       "e.g. `# simlint: disable=SL01 -- reason`"))
            else:
                pragmas.append(_Pragma(line, raw_line, "disable", rules, justified))
        elif directive == "ordered":
            pragmas.append(_Pragma(line, raw_line, "ordered", (), justified))
        else:
            pragmas.append(_Pragma(line, raw_line, directive or "?", (), justified,
                                   malformed=f"unknown simlint pragma {directive!r}"))
    return pragmas


class LintContext:
    """Everything a rule needs about the file being checked."""

    def __init__(self, path: str, source: str, tree: ast.Module,
                 pragmas: FilePragmas):
        self.path = path
        self.source = source
        self.tree = tree
        self.pragmas = pragmas
        self.findings: list[Finding] = []
        #: local alias -> imported module name ("np" -> "numpy")
        self.module_aliases: dict[str, str] = {}
        #: local name -> fully qualified origin ("now" -> "datetime.datetime.now")
        self.from_imports: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name.split(".")[0]] = \
                        alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"

    def node_lines(self, node: ast.AST) -> tuple[int, ...]:
        """Lines a pragma may sit on to govern ``node``: its first line
        and (for multi-line constructs) its last."""
        first = getattr(node, "lineno", 1)
        last = getattr(node, "end_lineno", None) or first
        return (first, last) if last != first else (first,)

    def report(self, rule_id: str, node: ast.AST, message: str) -> None:
        """Record a finding unless a justified disable pragma covers it."""
        if self.pragmas.disabled(rule_id, self.node_lines(node)):
            return
        self.findings.append(Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule_id,
            message=message,
        ))


class Rule:
    """Base class for simlint rules.

    Subclasses set ``id``, write the rationale in the class docstring
    (mirrored in DESIGN.md §16), and implement handlers named
    ``visit_<NodeType>``; the engine dispatches on AST node type.
    """

    id: str = "SL??"

    def handlers(self) -> Mapping[type[ast.AST], "list[object]"]:
        out: dict[type[ast.AST], list[object]] = {}
        for name in dir(self):
            if not name.startswith("visit_"):
                continue
            node_type = getattr(ast, name[len("visit_"):], None)
            if isinstance(node_type, type) and issubclass(node_type, ast.AST):
                out.setdefault(node_type, []).append(getattr(self, name))
        return out


def _lint_file(path: str, source: str,
               rules: Sequence[Rule]) -> tuple[list[Finding], FilePragmas | None]:
    """Lint one file with the ``rules`` in scope for ``path``; returns
    (findings, pragmas)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        line = exc.lineno or 1
        return ([Finding(path, line, (exc.offset or 0) + 1, "SL00",
                         f"file does not parse: {exc.msg}")], None)
    except ValueError as exc:  # e.g. null bytes in the source text
        return ([Finding(path, 1, 1, "SL00",
                         f"file does not parse: {exc}")], None)
    pragmas = FilePragmas(_parse_pragmas(source))
    ctx = LintContext(path, source, tree, pragmas)

    dispatch: dict[type[ast.AST], list[object]] = {}
    for rule in rules:
        if not rule_in_scope(rule.id, path):
            continue
        for node_type, fns in rule.handlers().items():
            dispatch.setdefault(node_type, []).extend(fns)

    if dispatch:
        for node in ast.walk(tree):
            for fn in dispatch.get(type(node), ()):
                fn(node, ctx)  # type: ignore[operator]

    # Suppression hygiene (SL00) runs last so it also covers pragmas
    # attached to lines no rule visited.
    for p in pragmas.raw:
        if p.malformed:
            ctx.findings.append(Finding(path, p.src_line, 1, "SL00", p.malformed))
        elif not p.justified:
            ctx.findings.append(Finding(
                path, p.src_line, 1, "SL00",
                "suppression lacks a justification: append `-- <reason>`"))
    return sorted(ctx.findings, key=Finding.sort_key), pragmas


def lint_source(path: str, source: str, rules: Sequence[Rule]) -> list[Finding]:
    """Lint one file's source text; returns sorted findings."""
    findings, _pragmas = _lint_file(path, source, rules)
    return findings


def iter_python_files(paths: Iterable[str]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    seen: dict[Path, None] = {}
    for p in paths:
        path = Path(p)
        if path.is_dir():
            for f in sorted(path.rglob("*.py")):
                seen.setdefault(f, None)
        elif path.suffix == ".py":
            seen.setdefault(path, None)
    return sorted(seen)


def _stale_suppressions(linted: Sequence[tuple[str, FilePragmas]]) -> list[Finding]:
    """SL08: pragmas that suppressed nothing this run."""
    out: list[Finding] = []
    for path, prag in linted:
        if not rule_in_scope("SL08", path):
            continue
        for idx, p in enumerate(prag.raw):
            if p.malformed or not p.justified or idx in prag.used:
                continue
            what = (f"disable={','.join(p.rules)}" if p.kind == "disable"
                    else p.kind)
            out.append(Finding(
                path, p.src_line, 1, "SL08",
                f"stale suppression: `# simlint: {what}` no longer "
                f"suppresses any finding — remove it"))
    return out


def lint_paths(paths: Iterable[str], rules: Sequence[Rule],
               full_run: bool = False) -> tuple[list[Finding], int]:
    """Lint every ``*.py`` under ``paths``; returns (findings, files_checked).

    ``full_run`` adds the suppression-staleness audit (SL08), which is
    only meaningful when every rule ran over the full default file set:
    it reports each justified pragma that suppressed nothing during this
    run.
    """
    files = iter_python_files(paths)
    findings: list[Finding] = []
    linted: list[tuple[str, FilePragmas]] = []
    for f in files:
        rel = f.as_posix()
        fnd, pragmas = _lint_file(rel, f.read_text(encoding="utf-8"), rules)
        findings.extend(fnd)
        if pragmas is not None:
            linted.append((rel, pragmas))
    if full_run:
        findings.extend(_stale_suppressions(linted))
    return sorted(findings, key=Finding.sort_key), len(files)

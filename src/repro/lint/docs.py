"""The simlint rule-doc table: one source of truth for rule docs.

``python -m repro.lint --explain SLxx`` renders an entry from this
table; ``--list-rules`` prints the id/title lines; DESIGN.md §16 and the
README rule table mirror it (a test asserts every id documented here
appears in both, so the docs cannot drift silently).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RuleDoc", "RULE_DOCS", "rule_doc", "render_explain"]


@dataclass(frozen=True)
class RuleDoc:
    """Documentation for one rule: rationale, examples, pragma contract."""

    id: str
    title: str
    rationale: str
    good: str
    bad: str
    pragma: str


RULE_DOCS: tuple[RuleDoc, ...] = (
    RuleDoc(
        id="SL00",
        title="suppression hygiene: every pragma is well-formed and justified",
        rationale=(
            "A suppression is a hole in the determinism contract; an "
            "unexplained one is a hole nobody can audit.  Every "
            "`# simlint:` pragma must parse and carry `-- <reason>`."),
        good='x = now()  # simlint: disable=SL02 -- wall-clock ok: log label only',
        bad="x = now()  # simlint: disable=SL02",
        pragma="not suppressible — fix or delete the broken pragma",
    ),
    RuleDoc(
        id="SL01",
        title="no unordered set/dict-view iteration feeding simulation state",
        rationale=(
            "Set iteration order is hash order (randomized per process for "
            "str); dict views are insertion order.  One unordered loop in a "
            "repair or eviction path invalidates every pinned golden digest."),
        good="for node in sorted(ring.nodes()): repair(node)",
        bad="for node in ring.nodes(): repair(node)   # a set",
        pragma=("`# simlint: ordered -- <why the order is deterministic>` "
                "records a proof obligation; `disable=SL01` is the last resort"),
    ),
    RuleDoc(
        id="SL02",
        title="no wall-clock or ambient randomness outside repro.sim.rng",
        rationale=(
            "time.time()/random.random() make runs unrepeatable.  All "
            "stochastic inputs must come from seeded repro.sim.rng streams; "
            "all time must be simulated time."),
        good='rng = stream(seed, "arrivals"); dt = rng.exponential(mean)',
        bad="dt = random.expovariate(rate)",
        pragma=("`disable=SL02 -- <reason>` for sanctioned host-timing sites "
                "(benchmark harness wall timing, log timestamps)"),
    ),
    RuleDoc(
        id="SL03",
        title="no float ==/!= on simulated-time or byte quantities",
        rationale=(
            "Float equality on accumulated quantities (ages, deadlines, "
            "sizes) flips with summation order — the census-drift bug class.  "
            "Compare with tolerances or restructure to integers."),
        good="if abs(age - deadline) < 1e-9: ...",
        bad="if age == deadline: ...",
        pragma="`disable=SL03 -- <why exact equality is sound here>`",
    ),
    RuleDoc(
        id="SL04",
        title="no reach-ins to protected cache internals",
        rationale=(
            "The global census (paper §3.1) is correct only while every "
            "mutation of _masters/_nonmasters/_replicas goes through the "
            "owning module's API.  External attribute access bypasses the "
            "single code path the invariant checker audits."),
        good="cache.forget(block)",
        bad="cache._masters.pop(block)",
        pragma="`disable=SL04 -- <reason>` (tests that assert on internals)",
    ),
    RuleDoc(
        id="SL05",
        title="no mutable default arguments",
        rationale=(
            "A mutable default is shared across calls: state leaks between "
            "independent simulation runs, breaking run-to-run isolation."),
        good="def run(self, hooks=None): hooks = hooks or []",
        bad="def run(self, hooks=[]): ...",
        pragma="`disable=SL05 -- <reason>` (rarely justified)",
    ),
    RuleDoc(
        id="SL08",
        title="stale suppressions: pragmas and allow entries must stay live",
        rationale=(
            "A pragma or [tool.simlint.allow] entry that no longer "
            "suppresses any finding is a hole that outlived its bug.  "
            "Flagging stale suppressions means the inventory can only "
            "shrink as the code improves."),
        good="(delete the pragma once the flagged code is gone)",
        bad="x = simulated_now()  # simlint: disable=SL02 -- leftover",
        pragma="not suppressible — delete the stale suppression instead",
    ),
)


def rule_doc(rule_id: str) -> RuleDoc | None:
    for doc in RULE_DOCS:
        if doc.id == rule_id.upper():
            return doc
    return None


def render_explain(doc: RuleDoc) -> str:
    """The ``--explain`` text for one rule."""
    return "\n".join([
        f"{doc.id}: {doc.title}",
        "",
        doc.rationale,
        "",
        "  good:",
        *(f"    {line}" for line in doc.good.splitlines()),
        "  bad:",
        *(f"    {line}" for line in doc.bad.splitlines()),
        "",
        f"  suppression: {doc.pragma}",
    ])

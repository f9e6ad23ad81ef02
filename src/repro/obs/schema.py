"""The shared versioned schema for machine-readable analysis outputs.

Every JSON document the offline analysis layer emits for CI consumption
— ``analyze --json`` attribution summaries, differential (``diff``)
reports and ``analyze fleet`` rollups — carries the same two envelope
fields:

* ``schema_version`` — :data:`OUTPUT_SCHEMA_VERSION`, bumped once for
  the whole family on any incompatible shape change, so a CI consumer
  checks a single number;
* ``kind`` — which report this is (``"attribution"``, ``"diff"``,
  ``"fleet"``), so a file can be sniffed without trusting its name.

:func:`as_report` stamps the envelope; :func:`check_report` validates a
loaded document (the round-trip contract CI artifacts rely on).
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "OUTPUT_SCHEMA_VERSION",
    "REPORT_KINDS",
    "as_report",
    "check_report",
]

#: Version of the shared analysis-output schema.  History:
#: 1 — ``analyze --json`` attribution summary only (PR 4);
#: 2 — envelope (``kind``) shared with the other reports.  Adding the
#:     ``"fleet"`` kind and dropping ``"critical"`` / ``"slo"`` changed
#:     no attribution document, so the version stayed 2 and committed
#:     version-2 baselines keep validating.
OUTPUT_SCHEMA_VERSION = 2

#: Every report kind the analysis layer emits.
REPORT_KINDS = ("attribution", "diff", "fleet")


def as_report(kind: str, payload: dict[str, Any]) -> dict[str, Any]:
    """Stamp ``payload`` with the shared envelope; returns a new dict."""
    if kind not in REPORT_KINDS:
        raise ValueError(f"unknown report kind {kind!r}; "
                         f"choose from {REPORT_KINDS}")
    out: dict[str, Any] = {
        "schema_version": OUTPUT_SCHEMA_VERSION,
        "kind": kind,
    }
    out.update(payload)
    return out


def check_report(doc: dict[str, Any], kind: str | None = None) -> str:
    """Validate a loaded report envelope; returns its ``kind``.

    Raises :class:`ValueError` when the document is not a report, its
    schema version is unknown, or ``kind`` (when given) does not match.
    """
    if not isinstance(doc, dict):
        raise ValueError("report must be a JSON object")
    version = doc.get("schema_version")
    if version != OUTPUT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {version!r} "
            f"(this build reads {OUTPUT_SCHEMA_VERSION})"
        )
    got = doc.get("kind")
    if got not in REPORT_KINDS:
        raise ValueError(f"unknown report kind {got!r}")
    if kind is not None and got != kind:
        raise ValueError(f"expected a {kind!r} report, got {got!r}")
    return got

"""Chrome trace-event export (loadable in Perfetto / chrome://tracing).

Maps the simulator's span JSONL onto the Chrome trace-event JSON format:

* **process** = cluster node (``pid`` = node id; cluster-level spans
  with no node — router, wire, client roots — get ``pid`` 0 relabelled
  "cluster");
* **thread** = lane within the node: one lane for request/protocol
  spans, one per device class for profiler phase spans, one ``events``
  lane for fault-injection (``fault``) points;
* finished spans become complete (``"X"``) events, zero-duration spans
  become instants (``"i"``), and process/thread names are declared with
  metadata (``"M"``) events;
* spans flagged ``unfinished`` (a dump taken mid-run, or a request cut
  short by a crash) become instants at their start time carrying
  ``"unfinished": true`` in ``args`` — never silently dropped.

Timestamps: the simulator's milliseconds are exported as microseconds
(``ts`` / ``dur``), the unit the format specifies.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Iterable
from typing import Any

from .profile import PHASE_SPAN

__all__ = ["to_chrome_trace", "dump_chrome_trace"]

logger = logging.getLogger(__name__)

#: Thread lanes per process, in display order.
_LANES = (
    "requests", "protocol", "cpu", "nic", "bus", "disk",
    "wire", "router", "wait", "events",
)
_LANE_TID = {name: i for i, name in enumerate(_LANES)}

#: Phase-name -> lane for profiler phase spans.
_PHASE_LANE = {
    "cpu": "cpu",
    "nic": "nic",
    "bus": "bus",
    "disk": "disk",
    "wire": "wire",
    "router": "router",
    "fetch": "wait",
    "master_wait": "wait",
    "coalesce_wait": "wait",
}

#: pid used for spans with no node attribution (router, wire, clients).
_CLUSTER_PID = 0


def _pid(rec: dict[str, Any]) -> int:
    node = rec.get("node")
    return _CLUSTER_PID if node is None else int(node) + 1


def _lane(rec: dict[str, Any]) -> str:
    if rec["name"] == PHASE_SPAN:
        phase = rec.get("attrs", {}).get("p", "")
        return _PHASE_LANE.get(phase, "wait")
    if rec["name"] in ("client", "request"):
        return "requests"
    if rec["name"] == "fault":
        return "events"
    return "protocol"


def _event_name(rec: dict[str, Any]) -> str:
    if rec["name"] == PHASE_SPAN:
        return rec.get("attrs", {}).get("p", PHASE_SPAN)
    cls = rec.get("attrs", {}).get("cls")
    return f"{rec['name']}:{cls}" if cls else rec["name"]


def to_chrome_trace(records: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Convert tracer span records to a Chrome trace-event dict."""
    events: list[dict[str, Any]] = []
    pids: dict[int, str] = {}
    lanes_used: dict[int, set] = {}
    unfinished = 0

    for rec in records:
        pid = _pid(rec)
        lane = _lane(rec)
        pids.setdefault(
            pid,
            "cluster" if pid == _CLUSTER_PID else f"node{pid - 1}",
        )
        lanes_used.setdefault(pid, set()).add(lane)
        args = {"trace": rec["trace"], "span": rec["span"]}
        args.update(rec.get("attrs", {}))
        ts_us = rec["start"] * 1000.0
        base = {
            "name": _event_name(rec),
            "cat": "sim",
            "pid": pid,
            "tid": _LANE_TID[lane],
            "ts": ts_us,
            "args": args,
        }
        if rec.get("end") is None:
            # A span cut short (mid-run dump, crash-orphaned request):
            # an instant at its start, explicitly flagged.
            unfinished += 1
            args["unfinished"] = True
            base["ph"] = "i"
            base["s"] = "t"
        elif rec["end"] > rec["start"]:
            base["ph"] = "X"
            base["dur"] = (rec["end"] - rec["start"]) * 1000.0
        else:
            base["ph"] = "i"
            base["s"] = "t"
        events.append(base)

    meta: list[dict[str, Any]] = []
    for pid in sorted(pids):
        meta.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": pids[pid]},
        })
        for lane in sorted(lanes_used.get(pid, ()), key=_LANE_TID.get):
            meta.append({
                "name": "thread_name", "ph": "M", "pid": pid,
                "tid": _LANE_TID[lane], "args": {"name": lane},
            })
    if unfinished:
        logger.warning("chrome export flagged %d unfinished spans "
                       "as instants", unfinished)
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro tracer JSONL"},
    }


def dump_chrome_trace(records: Iterable[dict[str, Any]], path) -> None:
    """Write the Chrome trace-event JSON for ``records`` to ``path``."""
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(to_chrome_trace(records), fp, sort_keys=True, default=float)
        fp.write("\n")


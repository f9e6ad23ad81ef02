"""Cache-behavior telemetry ("CacheScope").

The paper's central argument is *explanatory*: CC-KMC beats CC-Basic
because traditional global-LRU replacement evicts master copies while
duplicate (non-master) blocks still occupy the cluster's memory, wasting
aggregate capacity and forcing disk reads.  The benchmarks assert the
resulting throughput shapes; this module measures the mechanism itself:

* **duplicate-byte share** — the fraction of aggregate resident bytes
  occupied by copies beyond the first, tracked as a time-weighted level
  per window (reusing :class:`~repro.sim.stats.WindowedSeries`);
* **master vs non-master eviction counts**, and
  **master-evicted-while-non-master-held violations** — a *policy*
  eviction that sacrificed a master while the evicting node still held
  at least one replica.  Zero under CC-KMC by construction; the
  signature pathology of CC-Basic;
* **forwarding-hop histogram** — how many times each master has been
  forwarded since it last entered memory from disk;
* **directory one-hop-stale lookups** — peer fetches that found the
  directory's answer already evicted;
* **per-node replica census** — resident masters / non-masters / KB per
  node, maintained incrementally;
* **eviction provenance** — a ring-buffer ledger of who evicted what,
  why (``drop`` / ``forward`` / ``displaced`` / ``invalidate`` /
  ``write_race`` / ``ownership`` / ``crash``) and where it went.

The scope is *passive*: it never yields simulator events and never
touches the tracer, so enabling it cannot perturb the event stream — a
run with ``cachestats`` on produces byte-identical golden traces.

Census accounting flows through exactly one code path: the caches
themselves (:class:`~repro.cache.blockcache.BlockCache` /
:class:`~repro.press.filecache.FileCache`) notify the scope on every
insert / remove / promote, so no protocol call site can leak a copy.
The middleware adds only the *explanatory* hooks (eviction decisions,
forward outcomes, stale lookups) that the caches cannot know about.
"""

from __future__ import annotations

import functools
import json
from collections import deque
from typing import Any

from ..sim.stats import WindowedSeries

__all__ = [
    "CacheScope",
    "NullCacheScope",
    "NULL_CACHESCOPE",
]

#: Entries the eviction-provenance ledger keeps (the newest win).
LEDGER_SIZE = 256

#: Per-window point-event series kept by the scope.
_EVENT_SERIES = (
    "master_evictions", "nonmaster_evictions", "violations",
    "stale_lookups", "forwards",
)

#: Eviction reasons that are *policy* choices (the replacement knob the
#: paper turns); only these can count as violations.
_POLICY_REASONS = ("drop", "forward")


def _key_str(key: Any) -> str:
    """Stable printable form of a cache key (BlockId tuple or file id)."""
    if isinstance(key, tuple):
        return ":".join(str(p) for p in key)
    return str(key)


class CacheScope:
    """Windowed cache-behavior telemetry for one simulated run."""

    #: Real scopes record; the null scope advertises False so callers can
    #: skip building hook arguments entirely.
    active = True
    #: Width (simulated ms) of the scope's time windows.
    window_ms = 100.0

    def __init__(self) -> None:
        self._clock = lambda: 0.0
        self._layout = None
        self._directory = None
        # -- census (kept incrementally; one code path via the caches) --
        self._copies: dict[Any, int] = {}
        self._copy_kb: dict[Any, float] = {}
        self._node_masters: dict[int, int] = {}
        self._node_nonmasters: dict[int, int] = {}
        self._node_kb: dict[int, float] = {}
        self.resident_copies = 0
        self.resident_kb = 0.0
        self.duplicate_copies = 0
        self.duplicate_kb = 0.0
        # -- time-weighted levels (duplicate share per window) --
        self._last_t = 0.0
        self._dup_kb_series = WindowedSeries(self.window_ms)
        self._total_kb_series = WindowedSeries(self.window_ms)
        # -- explanatory counters + per-window point events --
        self._counts: dict[str, int] = {}
        self._by_reason: dict[str, int] = {}
        self._forward_outcomes: dict[str, int] = {}
        self._events: dict[str, WindowedSeries] = {
            name: WindowedSeries(self.window_ms) for name in _EVENT_SERIES
        }
        # -- forwarding-hop tracking --
        self._hops: dict[Any, int] = {}
        self._hop_hist: dict[int, int] = {}
        # -- eviction provenance ring buffer: raw hook arguments, made
        # into entries only when read (see ``ledger``) --
        self._ledger: deque[tuple[Any, ...]] = deque(maxlen=LEDGER_SIZE)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, sim) -> None:
        """Read timestamps from ``sim`` from now on."""
        # A partial calls getattr in C: no lambda frame per timestamp.
        self._clock = functools.partial(getattr, sim, "now")

    def bind_layout(self, layout) -> None:
        """Resolve block sizes through ``layout`` (middleware systems)."""
        self._layout = layout

    def bind_directory(self, directory) -> None:
        """Snapshot the master directory's census alongside the caches."""
        self._directory = directory

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _kb_of(self, key: Any, kb: float | None) -> float:
        if kb is not None:
            return kb
        if self._layout is not None and isinstance(key, tuple):
            return self._layout.block_size_kb(key)
        return 1.0

    def _advance(self, now: float) -> None:
        """Integrate the current levels up to ``now`` (time weighting)."""
        if now > self._last_t:
            self._dup_kb_series.add_interval(
                self._last_t, now, self.duplicate_kb
            )
            self._total_kb_series.add_interval(
                self._last_t, now, self.resident_kb
            )
            self._last_t = now

    def _count(self, name: str, by: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + by

    # ------------------------------------------------------------------
    # census hooks (called by the caches — one code path)
    # ------------------------------------------------------------------
    def on_insert(
        self, node_id: int, key: Any, master: bool,
        kb: float | None = None,
    ) -> None:
        """A copy of ``key`` became resident at ``node_id``."""
        now = self._clock()
        self._advance(now)
        size = self._kb_of(key, kb)
        copies = self._copies.get(key, 0) + 1
        self._copies[key] = copies
        self._copy_kb[key] = size
        self.resident_copies += 1
        self.resident_kb += size
        if copies > 1:
            self.duplicate_copies += 1
            self.duplicate_kb += size
        if master:
            self._node_masters[node_id] = (
                self._node_masters.get(node_id, 0) + 1
            )
        else:
            self._node_nonmasters[node_id] = (
                self._node_nonmasters.get(node_id, 0) + 1
            )
        self._node_kb[node_id] = self._node_kb.get(node_id, 0.0) + size

    def on_remove(
        self, node_id: int, key: Any, master: bool,
        kb: float | None = None,
    ) -> None:
        """A copy of ``key`` left ``node_id``'s memory."""
        now = self._clock()
        self._advance(now)
        size = self._kb_of(key, kb if kb is not None else self._copy_kb.get(key))
        copies = self._copies.get(key, 0) - 1
        if copies <= 0:
            self._copies.pop(key, None)
            self._copy_kb.pop(key, None)
        else:
            self._copies[key] = copies
        self.resident_copies -= 1
        self.resident_kb -= size
        if copies >= 1:
            # The copy that left was one of several: a duplicate is gone.
            self.duplicate_copies -= 1
            self.duplicate_kb -= size
        if master:
            self._node_masters[node_id] = (
                self._node_masters.get(node_id, 0) - 1
            )
        else:
            self._node_nonmasters[node_id] = (
                self._node_nonmasters.get(node_id, 0) - 1
            )
        self._node_kb[node_id] = self._node_kb.get(node_id, 0.0) - size
        # Accumulated += / -= of float sizes can leave a ±epsilon residue
        # (addition is not associative); snap each level to exactly zero
        # whenever its copy count reaches zero so a drained cache never
        # reports "-0.0 KB resident".
        if self.duplicate_copies == 0:
            self.duplicate_kb = 0.0
        if self.resident_copies == 0:
            self.resident_kb = 0.0
        if not self._node_masters.get(node_id) \
                and not self._node_nonmasters.get(node_id):
            self._node_kb[node_id] = 0.0

    def on_promote(self, node_id: int, key: Any) -> None:
        """A resident non-master at ``node_id`` absorbed master status."""
        self._node_masters[node_id] = self._node_masters.get(node_id, 0) + 1
        self._node_nonmasters[node_id] = (
            self._node_nonmasters.get(node_id, 0) - 1
        )

    # ------------------------------------------------------------------
    # explanatory hooks (called by the middleware / PRESS)
    # ------------------------------------------------------------------
    def on_evict(
        self, node_id: int, key: Any, master: bool, nonmasters_held: int,
        reason: str, dest: int | None = None,
    ) -> None:
        """Record one eviction with its provenance.

        ``nonmasters_held`` is the evicting node's replica count *at the
        decision point* (before removal).  ``reason`` in
        ``("drop", "forward")`` marks a policy eviction; anything else
        (``displaced`` / ``invalidate`` / ``crash`` / ...) is protocol
        fallout and never counts as a violation.
        """
        now = self._clock()
        self._by_reason[reason] = self._by_reason.get(reason, 0) + 1
        policy = reason in _POLICY_REASONS
        if policy:
            if master:
                self._count("master_evictions")
                self._events["master_evictions"].add(now)
                if nonmasters_held > 0:
                    self._count("violations")
                    self._events["violations"].add(now)
            else:
                self._count("nonmaster_evictions")
                self._events["nonmaster_evictions"].add(now)
        self._ledger.append(
            (now, node_id, key, master, nonmasters_held, reason, dest)
        )

    def on_forward(self, key: Any, outcome: str) -> None:
        """An evicted master arrived at its forward destination.

        ``outcome`` is the middleware's resolution (``installed`` /
        ``merged`` / ``dropped`` / ``stale``).  The per-block hop count
        grows on every forward and resets when the master leaves memory
        or is re-created from disk, so the histogram answers "how far do
        masters travel before settling or dying?".
        """
        now = self._clock()
        self._forward_outcomes[outcome] = (
            self._forward_outcomes.get(outcome, 0) + 1
        )
        self._count("forwards")
        self._events["forwards"].add(now)
        hops = self._hops.get(key, 0) + 1
        self._hops[key] = hops
        self._hop_hist[hops] = self._hop_hist.get(hops, 0) + 1
        if outcome in ("dropped", "stale"):
            self._hops.pop(key, None)

    def on_master_exit(self, key: Any) -> None:
        """The master of ``key`` left cluster memory (hop chain ends)."""
        self._hops.pop(key, None)

    def on_master_reset(self, key: Any) -> None:
        """A fresh master of ``key`` was created from disk (chain restarts)."""
        self._hops.pop(key, None)

    def on_stale(self, n: int = 1) -> None:
        """``n`` blocks were looked up one hop stale (peer already evicted)."""
        now = self._clock()
        self._count("stale_lookups", n)
        self._events["stale_lookups"].add(now, n)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    @property
    def ledger(self) -> list[dict[str, Any]]:
        """The newest :data:`LEDGER_SIZE` evictions, oldest first, one
        dict each (``dest`` only for evictions that named one)."""
        entries: list[dict[str, Any]] = []
        for now, node_id, key, master, held, reason, dest in self._ledger:
            entry = {
                "t_ms": now,
                "node": node_id,
                "key": _key_str(key),
                "master": bool(master),
                "nonmasters_held": held,
                "reason": reason,
            }
            if dest is not None:
                entry["dest"] = dest
            entries.append(entry)
        return entries

    @property
    def duplicate_share(self) -> float:
        """Instantaneous duplicate-byte fraction of resident bytes."""
        if self.resident_kb <= 0.0 or self.duplicate_kb <= 0.0:
            return 0.0
        return self.duplicate_kb / self.resident_kb

    def violations(self) -> int:
        """Master-evicted-while-non-master-held count so far."""
        return self._counts.get("violations", 0)

    def per_node_census(self) -> dict[int, dict[str, float]]:
        """Resident masters / non-masters / KB per node id."""
        nodes = (
            set(self._node_masters) | set(self._node_nonmasters)
            | set(self._node_kb)
        )
        return {
            n: {
                "masters": self._node_masters.get(n, 0),
                "nonmasters": self._node_nonmasters.get(n, 0),
                "kb": round(self._node_kb.get(n, 0.0), 6),
            }
            for n in sorted(nodes)
        }

    def _window_rows(self) -> list[dict[str, Any]]:
        self._advance(self._clock())
        series = [self._dup_kb_series, self._total_kb_series]
        series += list(self._events.values())
        first = min((s.window_range()[0] for s in series if not s.empty),
                    default=0)
        last = max((s.window_range()[1] for s in series if not s.empty),
                   default=-1)
        rows: list[dict[str, Any]] = []
        for idx in range(first, last + 1):
            total = self._total_kb_series.values(idx, idx)[0]
            dup = self._dup_kb_series.values(idx, idx)[0]
            row: dict[str, Any] = {
                "t_ms": self._total_kb_series.window_start(idx),
                "duplicate_share": (dup / total) if total > 0.0 else 0.0,
                "resident_kb_mean": total / self.window_ms,
            }
            for name in _EVENT_SERIES:
                row[name] = self._events[name].values(idx, idx)[0]
            rows.append(row)
        return rows

    def snapshot(self) -> dict[str, Any]:
        """The full telemetry state as one JSON-ready dict."""
        totals: dict[str, Any] = {
            "resident_copies": self.resident_copies,
            "resident_kb": round(self.resident_kb, 6),
            "distinct_blocks": len(self._copies),
            "duplicate_copies": self.duplicate_copies,
            "duplicate_kb": round(self.duplicate_kb, 6),
            "duplicate_share": self.duplicate_share,
            "master_evictions": self._counts.get("master_evictions", 0),
            "nonmaster_evictions": self._counts.get("nonmaster_evictions", 0),
            "violations": self._counts.get("violations", 0),
            "stale_lookups": self._counts.get("stale_lookups", 0),
            "forwards": self._counts.get("forwards", 0),
            "forward_outcomes": dict(sorted(self._forward_outcomes.items())),
            "evictions_by_reason": dict(sorted(self._by_reason.items())),
        }
        if self._directory is not None:
            totals["directory_entries"] = len(self._directory)
            census = getattr(self._directory, "census", None)
            if census is not None:
                totals["directory_masters_per_node"] = {
                    str(n): c for n, c in sorted(census().items())
                }
        return {
            "window_ms": self.window_ms,
            "totals": totals,
            "per_node": {
                str(n): row for n, row in self.per_node_census().items()
            },
            "hop_histogram": {
                str(h): c for h, c in sorted(self._hop_hist.items())
            },
            "windows": self._window_rows(),
            "ledger": self.ledger,
        }

    def dump_jsonl(self, path) -> None:
        """Write the snapshot as JSONL: one summary line, then one line
        per window, then the eviction ledger (newest last)."""
        snap = self.snapshot()
        with open(path, "w", encoding="utf-8") as fp:
            summary = {
                "kind": "summary",
                "window_ms": snap["window_ms"],
                "totals": snap["totals"],
                "per_node": snap["per_node"],
                "hop_histogram": snap["hop_histogram"],
            }
            fp.write(json.dumps(summary, sort_keys=True, default=float))
            fp.write("\n")
            for row in snap["windows"]:
                fp.write(json.dumps(
                    dict(row, kind="window"), sort_keys=True, default=float
                ))
                fp.write("\n")
            for entry in snap["ledger"]:
                fp.write(json.dumps(
                    dict(entry, kind="evict"), sort_keys=True, default=float
                ))
                fp.write("\n")

    # ------------------------------------------------------------------
    # consistency (tests / debugging)
    # ------------------------------------------------------------------
    def census_drift(self, caches) -> list[str]:
        """Mismatches between the incremental census and ``caches``.

        Empty when the bookkeeping agrees with ground truth; each entry
        names one disagreement.  Accepts any iterable of objects with a
        ``stats()`` snapshot (``BlockCache``) so the scope never reaches
        into private dicts.
        """
        problems: list[str] = []
        for cache in caches:
            st = cache.stats()
            nid = st["node"]
            want_m = self._node_masters.get(nid, 0)
            want_n = self._node_nonmasters.get(nid, 0)
            if st["masters"] != want_m:
                problems.append(
                    f"node {nid}: {st['masters']} masters resident, "
                    f"scope says {want_m}"
                )
            if st["nonmasters"] != want_n:
                problems.append(
                    f"node {nid}: {st['nonmasters']} nonmasters resident, "
                    f"scope says {want_n}"
                )
        return problems


class NullCacheScope:
    """No-op scope: every hook is a cheap method dispatch.

    Components hold this when cache telemetry is off, so protocol code
    calls hooks unconditionally without ``if`` guards (mirrors
    :data:`~repro.obs.tracing.NULL_TRACER`).
    """

    active = False
    window_ms = 0.0

    def attach(self, sim) -> None:
        pass

    def bind_layout(self, layout) -> None:
        pass

    def bind_directory(self, directory) -> None:
        pass

    def on_insert(self, node_id, key, master, kb=None) -> None:
        pass

    def on_remove(self, node_id, key, master, kb=None) -> None:
        pass

    def on_promote(self, node_id, key) -> None:
        pass

    def on_evict(self, node_id, key, master, nonmasters_held, reason,
                 dest=None) -> None:
        pass

    def on_forward(self, key, outcome) -> None:
        pass

    def on_master_exit(self, key) -> None:
        pass

    def on_master_reset(self, key) -> None:
        pass

    def on_stale(self, n=1) -> None:
        pass


#: Shared no-op instance.
NULL_CACHESCOPE = NullCacheScope()


"""Unit tests for the observability subsystem (repro.obs)."""

import hashlib
import json

import pytest

from repro.cache.block import BlockId
from repro.cache.blockcache import BlockCache
from repro.obs import (
    DEFAULT_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    InvariantSampler,
    MetricsRegistry,
    NULL_SPAN,
    NULL_TRACER,
    Observability,
    Tracer,
)
from repro.sim.engine import Simulator


class TestCounter:
    def test_incr(self):
        c = Counter("x")
        assert c.value == 0
        c.incr()
        c.incr(4)
        assert c.value == 5

    def test_never_decreases(self):
        with pytest.raises(ValueError):
            Counter("x").incr(-1)


class TestGauge:
    def test_explicit(self):
        g = Gauge("x")
        assert g.value == 0.0
        g.set(3.5)
        assert g.value == 3.5

    def test_callback_backed(self):
        box = [1.0]
        g = Gauge("x", fn=lambda: box[0])
        assert g.value == 1.0
        box[0] = 9.0
        assert g.value == 9.0

    def test_callback_gauge_rejects_set(self):
        g = Gauge("x", fn=lambda: 0.0)
        with pytest.raises(ValueError):
            g.set(1.0)


class TestHistogram:
    def test_bucketing(self):
        h = Histogram("x", bounds=(1.0, 10.0, 100.0))
        for v in (0.5, 1.0, 5.0, 99.0, 1e6):
            h.observe(v)
        # le_1 gets 0.5 and 1.0 (bounds are inclusive upper edges).
        assert h.counts == [2.0, 1.0, 1.0, 1.0]
        assert h.count == 5

    def test_weighted_mean(self):
        h = Histogram("x", bounds=(10.0,))
        h.observe(2.0, weight=3.0)   # e.g. queue length 2 held for 3 ms
        h.observe(4.0, weight=1.0)
        assert h.mean == pytest.approx(10.0 / 4.0)
        assert h.weight == 4.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Histogram("x").observe(1.0, weight=-1.0)

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("x", bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("x", bounds=())

    def test_snapshot_has_overflow(self):
        h = Histogram("x", bounds=(1.0,))
        h.observe(50.0)
        snap = h.snapshot()
        assert snap["buckets"] == {"le_1": 0.0, "le_inf": 1.0}
        assert snap["sum"] == 50.0

    def test_default_buckets(self):
        h = Histogram("x")
        assert h.bounds == DEFAULT_BUCKETS_MS

    def test_percentiles_in_snapshot(self):
        h = Histogram("x")
        for v in range(1, 1001):
            h.observe(float(v))
        snap = h.snapshot()
        # Reservoir capacity exceeds 1000, so these are near-exact.
        assert snap["p50"] == pytest.approx(500.0, rel=0.02)
        assert snap["p95"] == pytest.approx(950.0, rel=0.02)
        assert snap["p99"] == pytest.approx(990.0, rel=0.02)
        assert snap["p50"] == h.quantile(0.5)

    def test_percentiles_empty(self):
        snap = Histogram("x").snapshot()
        assert snap["p50"] == snap["p95"] == snap["p99"] == 0.0

    def test_percentiles_deterministic(self):
        def build():
            h = Histogram("x")
            for v in range(10_000):
                h.observe((v * 7919) % 1000 / 3.0)
            return h.snapshot()

        assert build() == build()


class TestMetricsRegistry:
    def test_get_or_create(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.gauge("g") is r.gauge("g")
        assert r.histogram("h") is r.histogram("h")

    def test_collector_merged_at_snapshot(self):
        r = MetricsRegistry()
        state = {"hits": 1}
        r.register_collector("comp", lambda: dict(state))
        state["hits"] = 7  # collectors are read lazily
        assert r.snapshot()["collected"]["comp"] == {"hits": 7}

    def test_duplicate_collector_rejected(self):
        r = MetricsRegistry()
        r.register_collector("comp", dict)
        with pytest.raises(ValueError):
            r.register_collector("comp", dict)

    def test_json_deterministic(self):
        r = MetricsRegistry()
        r.counter("b").incr()
        r.counter("a").incr(2)
        r.gauge("z").set(1.5)
        r.histogram("h", bounds=(1.0,)).observe(0.5)
        one = r.to_json()
        two = r.to_json()
        assert one == two
        data = json.loads(one)
        assert data["counters"] == {"a": 2, "b": 1}

    def test_dump(self, tmp_path):
        r = MetricsRegistry()
        r.counter("a").incr()
        path = tmp_path / "m.json"
        r.dump(path)
        assert json.loads(path.read_text())["counters"] == {"a": 1}


class TestTracer:
    def test_parent_child_same_trace(self):
        t = Tracer()
        root = t.start("request", node=0)
        child = t.start("peer_fetch", parent=root, node=0)
        assert child.trace_id == root.trace_id == root.span_id
        assert child.parent_id == root.span_id
        child.finish()
        root.finish()
        # Emission order is finish order: inner spans close first.
        assert [r["name"] for r in t.records] == ["peer_fetch", "request"]

    def test_null_span_parent_starts_new_trace(self):
        t = Tracer()
        s = t.start("forward", parent=NULL_SPAN)
        assert s.parent_id is None
        assert s.trace_id == s.span_id

    def test_simulated_clock(self):
        sim = Simulator()
        t = Tracer()
        t.attach(sim)

        def proc():
            span = t.start("work")
            yield sim.timeout(5.0)
            span.finish()

        sim.process(proc())
        sim.run()
        rec = t.records[0]
        assert rec["start"] == 0.0 and rec["end"] == 5.0

    def test_double_finish_raises(self):
        t = Tracer()
        s = t.start("x")
        s.finish()
        with pytest.raises(RuntimeError):
            s.finish()

    def test_point_is_zero_duration(self):
        t = Tracer()
        p = t.point("evict", node=2, master=False)
        assert p.start == p.end
        assert t.records[0]["attrs"] == {"master": False}

    def test_jsonl_and_digest_deterministic(self):
        def build():
            t = Tracer()
            root = t.start("request", node=1, file=9)
            t.point("probe", parent=root, n=3)
            root.finish(cls="local")
            return t

        a, b = build(), build()
        assert a.to_jsonl() == b.to_jsonl()
        assert a.digest() == b.digest()
        for line in a.to_jsonl().splitlines():
            rec = json.loads(line)
            assert list(rec) == sorted(rec)

    def test_dump_jsonl(self, tmp_path):
        t = Tracer()
        t.point("x")
        path = tmp_path / "t.jsonl"
        t.dump_jsonl(path)
        assert path.read_text() == t.to_jsonl()

    def test_export_matches_records_read_before_and_after(self, tmp_path):
        """Exports cover records already read, spans finished since the
        last read and open spans, in that order, each line encoded as
        ``json.dumps(rec, sort_keys=True, default=float)``."""
        t = Tracer()
        root = t.start("request", node=1, file=9)
        probe = t.point("probe", parent=root, n=3)
        first = t.records
        assert first == [probe.to_record()]
        fetch = t.start("peer_fetch", parent=root, node=2, p="fetch")
        tick = t.point("tick")
        fetch.finish(q=0.5, error=True)
        t.start("dangling", parent=root)
        text = t.to_jsonl()
        path = tmp_path / "t.jsonl"
        written = t.dump_jsonl(path)
        digest = t.digest()
        records = t.records
        assert records is first and records is t.records
        assert records == [probe.to_record(), tick.to_record(), fetch.to_record()]
        assert "attrs" not in records[1]
        assert records[2]["attrs"] == {"p": "fetch", "q": 0.5, "error": True}
        unfinished = [{**span.to_record(), "unfinished": True}
                      for span in t.open_spans]
        assert [r["name"] for r in unfinished] == ["request", "dangling"]
        expected = "".join(json.dumps(r, sort_keys=True, default=float) + "\n"
                           for r in records + unfinished)
        assert text == expected
        assert path.read_bytes() == expected.encode("utf-8")
        assert written == digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_clear(self):
        t = Tracer()
        t.point("x")
        records = t.records
        t.point("y")  # finished after the read
        t.start("open")
        t.clear()
        assert t.records is records and records == []
        assert t.open_spans == []
        assert t.to_jsonl() == ""

    def test_finished_count_matches_records(self):
        """``finished_count`` walks the undecoded log: it equals
        ``len(records)`` mid-run, after the run, and after ``clear()``
        followed by a span that was open across it."""
        sim = Simulator()
        t = Tracer()
        t.attach(sim)
        seen = []

        def request(i):
            root = t.start("request", node=i)
            for k in range(i):
                t.point("probe", parent=root, n=k)
                yield sim.timeout(1.0)
            root.finish(cls="local", **{f"a{j}": j for j in range(i)})

        def observer():
            for _ in range(2):
                yield sim.timeout(1.25)
                count = t.finished_count()  # before records decodes
                seen.append((count, len(t.records)))

        for i in range(5):
            sim.process(request(i))
        sim.process(observer())
        sim.run()
        count = t.finished_count()
        seen.append((count, len(t.records)))
        assert [c for c, _n in seen] == [9, 12, 15]
        assert all(c == n for c, n in seen)
        late = t.start("late")
        t.clear()
        assert t.finished_count() == 0
        late.finish(q=1.0)
        count = t.finished_count()
        assert count == len(t.records) == 1

    def test_point_matches_start_then_finish(self):
        """``point`` leaves the log entries, records and span that
        ``start`` followed by ``finish`` leave: the same ids, ``start ==
        end``, the attrs in call order, and nothing left open."""
        pointed, finished = Tracer(lambda: 2.5), Tracer(lambda: 2.5)

        def start_then_finish(name, **kwargs):
            span = finished.start(name, **kwargs)
            span.finish()
            return span

        def emit(t, make):
            root = t.start("request", node=1)
            root.finish()
            return [make("evict", parent=root, node=2, key="7:1", n=3),
                    make("fault", node=0, kind="crash"),
                    make("coalesce", parent=root)]

        spans = (emit(pointed, pointed.point),
                 emit(finished, start_then_finish))
        assert pointed._log == finished._log
        assert pointed.records == finished.records
        for got, want in zip(*spans):
            assert got.to_record() == want.to_record()
            assert got.finished and got.start == got.end == 2.5
            assert list(got.attrs.items()) == list(want.attrs.items())
        assert [list(r.get("attrs", {})) for r in pointed.records] == [
            [], ["key", "n"], ["kind"], []]
        assert [(r["trace"], r["span"], r["parent"])
                for r in pointed.records] == [
            (1, 1, None), (1, 2, 1), (3, 3, None), (1, 4, 1)]
        assert pointed.open_spans == []

    def test_unfinished_spans_flagged_in_export(self):
        t = Tracer()
        a = t.start("outer")
        b = t.start("inner", parent=a)
        b.finish()
        assert t.open_spans == [a]
        recs = [json.loads(line) for line in t.to_jsonl().splitlines()]
        # Finished records first, then open spans flagged unfinished.
        assert [r["name"] for r in recs] == ["inner", "outer"]
        assert "unfinished" not in recs[0]
        assert recs[1]["unfinished"] is True
        assert recs[1]["end"] is None

    def test_finish_clears_unfinished_flag(self):
        t = Tracer()
        a = t.start("outer")
        a.finish()
        assert t.open_spans == []
        recs = [json.loads(line) for line in t.to_jsonl().splitlines()]
        assert len(recs) == 1 and "unfinished" not in recs[0]

    def test_clear_drops_open_spans(self):
        t = Tracer()
        t.start("dangling")
        t.clear()
        assert t.open_spans == []
        assert t.to_jsonl() == ""


class TestNullTracer:
    def test_all_noops(self):
        assert not NULL_TRACER.enabled
        span = NULL_TRACER.start("x", node=1, foo=2)
        assert span is NULL_SPAN
        span.finish()
        span.finish(extra=1)  # safe to finish repeatedly
        assert NULL_TRACER.point("y") is NULL_SPAN
        assert NULL_TRACER.records == []
        assert NULL_TRACER.to_jsonl() == ""
        # Writes nothing; returns the digest of the empty export.
        assert (NULL_TRACER.dump_jsonl("/nonexistent/never-written")
                == NULL_TRACER.digest() == hashlib.sha256(b"").hexdigest())


class TestInvariantSampler:
    def _run_events(self, sim, n):
        def proc():
            for _ in range(n):
                yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()

    def test_samples_every_n(self):
        sim = Simulator()
        calls = []
        sampler = InvariantSampler(lambda: calls.append(sim.now), every=3)
        sampler.attach(sim)
        self._run_events(sim, 10)
        assert sampler.events_seen >= 10
        assert sampler.checks_run == sampler.events_seen // 3
        assert len(calls) == sampler.checks_run

    def test_failed_check_propagates(self):
        sim = Simulator()

        def bad():
            raise AssertionError("invariant broken")

        InvariantSampler(bad, every=1).attach(sim)
        sim.process(iter([sim.timeout(1.0)]))
        with pytest.raises(AssertionError, match="invariant broken"):
            sim.run()

    def test_detach_stops_sampling(self):
        sim = Simulator()
        sampler = InvariantSampler(lambda: None, every=1)
        sampler.attach(sim)
        sampler.detach()
        self._run_events(sim, 5)
        assert sampler.events_seen == 0

    def test_attach_twice_same_sim_ok(self):
        sim = Simulator()
        sampler = InvariantSampler(lambda: None, every=1)
        sampler.attach(sim)
        sampler.attach(sim)
        self._run_events(sim, 4)
        # Idempotent: the hook ran once per event, not twice.
        assert sampler.events_seen == sampler.checks_run

    def test_attach_other_sim_rejected(self):
        sampler = InvariantSampler(lambda: None)
        sampler.attach(Simulator())
        with pytest.raises(RuntimeError):
            sampler.attach(Simulator())

    def test_bad_every(self):
        with pytest.raises(ValueError):
            InvariantSampler(lambda: None, every=0)


class TestObservability:
    def test_defaults(self):
        obs = Observability()
        assert obs.tracer.enabled
        assert isinstance(obs.registry, MetricsRegistry)
        assert obs.sampler is None

    def test_trace_off_uses_null_tracer(self):
        obs = Observability(trace=False)
        assert obs.tracer is NULL_TRACER

    def test_profile_off_by_default(self):
        from repro.obs import NULL_PROFILER

        assert Observability().profiler is NULL_PROFILER

    def test_profile_implies_tracing(self):
        obs = Observability(trace=False, profile=True)
        assert obs.tracer.enabled
        assert obs.profiler.enabled
        assert obs.profiler.tracer is obs.tracer

    def test_negative_invariant_every_rejected(self):
        with pytest.raises(ValueError):
            Observability(invariant_every=-1)


class TestBlockCacheMastersView:
    """The read-only view backing check_invariants (no private access)."""

    def test_masters_snapshot(self):
        cache = BlockCache(node_id=0, capacity_blocks=4)
        a, b = BlockId(1, 0), BlockId(1, 1)
        cache.insert(a, master=True, age=0.0)
        cache.insert(b, master=False, age=1.0)
        masters = cache.masters()
        assert set(masters) == {a}
        # It is a snapshot: mutating the cache does not mutate the view...
        cache.promote_to_master(b)
        assert set(masters) == {a}
        assert set(cache.masters()) == {a, b}
        # ...and the view itself is immutable.
        assert isinstance(masters, tuple)

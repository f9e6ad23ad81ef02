"""Unit tests for the fault-injection subsystem.

Covers the pieces in isolation — plan construction/serialization, the
injector's state machine, the capped backoff, disk stalls — and the
middleware's crash-recovery logic (directory purge, youngest-replica
re-election, cold restart) through :class:`~repro.core.CoopCacheService`,
which wires the whole chaos stack from one constructor argument.
"""

import pytest

import repro.sim.faults as faults_mod
from repro.cache import BlockId
from repro.core import CoopCacheService, variant
from repro.params import DEFAULT_PARAMS
from repro.sim.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    NULL_FAULTS,
)


def make_faulted(plan, sizes=(16.0,) * 4, num_nodes=4, config=None, seed=0):
    return CoopCacheService(
        file_sizes_kb=list(sizes),
        num_nodes=num_nodes,
        mem_mb_per_node=1.0,
        config=config or variant("cc-kmc"),
        seed=seed,
        fault_plan=plan,
    )


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent("meteor", 1.0, node=0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent("crash", -1.0, node=0)

    def test_crash_requires_node(self):
        with pytest.raises(ValueError):
            FaultEvent("crash", 1.0)

    def test_link_down_requires_both_endpoints(self):
        with pytest.raises(ValueError):
            FaultEvent("link_down", 1.0, node=0)

    def test_disk_stall_requires_positive_duration(self):
        with pytest.raises(ValueError):
            FaultEvent("disk_stall", 1.0, node=0, extra_ms=0.0)


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan((
            FaultEvent("restart", 20.0, node=0),
            FaultEvent("crash", 10.0, node=0),
        ))
        assert [e.at_ms for e in plan.events] == [10.0, 20.0]
        assert plan.horizon_ms == 20.0
        assert len(plan) == 2 and bool(plan)

    def test_empty_plan_is_falsy(self):
        plan = FaultPlan.none()
        assert len(plan) == 0
        assert not plan
        assert plan.horizon_ms == 0.0

    def test_random_is_deterministic_per_seed(self):
        a = FaultPlan.random(7, 1000.0, 4, crashes_per_node=2.0,
                             link_drops=2, disk_stalls=2)
        b = FaultPlan.random(7, 1000.0, 4, crashes_per_node=2.0,
                             link_drops=2, disk_stalls=2)
        assert a == b
        c = FaultPlan.random(8, 1000.0, 4, crashes_per_node=2.0)
        assert a != c

    def test_random_covers_requested_kinds(self):
        plan = FaultPlan.random(1, 1000.0, 4, crashes_per_node=2.0,
                                link_drops=1, disk_stalls=1)
        kinds = {e.kind for e in plan.events}
        assert {"link_down", "link_up", "disk_stall"} <= kinds
        assert kinds <= set(FAULT_KINDS)

    def test_random_keeps_one_node_alive(self, monkeypatch):
        # Heavy crash load and long downtimes on a tiny cluster: the
        # generator must refuse any crash that would darken the whole
        # cluster.
        monkeypatch.setattr(faults_mod, "MEAN_DOWNTIME_FRAC", 0.5)
        for seed in range(10):
            plan = FaultPlan.random(seed, 1000.0, 2, crashes_per_node=8.0)
            down = set()
            for ev in plan.events:
                if ev.kind == "crash":
                    assert ev.node not in down  # never crash a down node
                    down.add(ev.node)
                    assert len(down) < 2
                elif ev.kind == "restart":
                    down.discard(ev.node)

    def test_random_crash_restart_pairs_balance(self):
        plan = FaultPlan.random(3, 1000.0, 4, crashes_per_node=3.0)
        crashes = sum(1 for e in plan.events if e.kind == "crash")
        restarts = sum(1 for e in plan.events if e.kind == "restart")
        assert crashes == restarts > 0

    def test_json_round_trip(self):
        plan = FaultPlan.random(5, 500.0, 3, crashes_per_node=1.0,
                                link_drops=1, disk_stalls=1)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_dump_load_round_trip(self, tmp_path):
        plan = FaultPlan.random(5, 500.0, 3, crashes_per_node=1.0)
        path = tmp_path / "plan.json"
        plan.dump(str(path))
        assert FaultPlan.load(str(path)) == plan

    def test_random_validates_inputs(self):
        with pytest.raises(ValueError):
            FaultPlan.random(0, 0.0, 4)
        with pytest.raises(ValueError):
            FaultPlan.random(0, 100.0, 0)


class TestInjectorStateMachine:
    def test_crash_and_restart_flip_liveness(self):
        plan = FaultPlan((
            FaultEvent("crash", 100.0, node=1),
            FaultEvent("restart", 200.0, node=1),
        ))
        svc = make_faulted(plan)
        svc.run(until=150.0)
        assert svc.faults.is_down(1)
        assert not svc.node(1).up
        assert svc.faults.alive_node_ids() == [0, 2, 3]
        svc.run(until=250.0)
        assert not svc.faults.is_down(1)
        assert svc.node(1).up
        assert svc.faults.counters.get("node_crashes") == 1
        assert svc.faults.counters.get("node_restarts") == 1

    def test_link_drop_is_symmetric_and_recovers(self):
        plan = FaultPlan((
            FaultEvent("link_down", 100.0, node=0, peer=2),
            FaultEvent("link_up", 200.0, node=0, peer=2),
        ))
        svc = make_faulted(plan)
        svc.run(until=150.0)
        assert not svc.faults.link_ok(0, 2)
        assert not svc.faults.link_ok(2, 0)
        assert svc.faults.link_ok(0, 1)
        assert svc.faults.link_ok(0, 0)  # self-link is always fine
        svc.run(until=250.0)
        assert svc.faults.link_ok(0, 2)

    def test_fault_listeners_see_every_event(self):
        plan = FaultPlan((
            FaultEvent("crash", 100.0, node=1),
            FaultEvent("restart", 200.0, node=1),
        ))
        svc = make_faulted(plan)
        seen = []
        svc.faults.fault_listeners.append(lambda ev: seen.append(ev.kind))
        svc.run()
        assert seen == ["crash", "restart"]


class TestBackoff:
    def _injector(self, seed):
        plan = FaultPlan((FaultEvent("crash", 1.0, node=0),))
        return FaultInjector(plan, DEFAULT_PARAMS, seed=seed)

    def test_hard_cap_never_exceeded(self):
        inj = self._injector(7)
        f = DEFAULT_PARAMS.faults
        vals = [inj.backoff_ms(a) for a in range(20)]
        assert all(v <= f.backoff_cap_ms for v in vals)
        # Far past the cap the jitter cannot matter: exactly the cap.
        assert vals[-1] == f.backoff_cap_ms

    def test_exponential_growth_within_jitter_envelope(self):
        inj = self._injector(7)
        f = DEFAULT_PARAMS.faults
        for attempt in range(4):  # well under the cap
            v = inj.backoff_ms(attempt)
            lo = f.backoff_base_ms * (2.0 ** attempt)
            assert lo <= v <= lo * (1.0 + f.backoff_jitter)

    def test_jitter_is_deterministic_per_seed(self):
        a = [self._injector(7).backoff_ms(i) for i in range(8)]
        b = [self._injector(7).backoff_ms(i) for i in range(8)]
        c = [self._injector(8).backoff_ms(i) for i in range(8)]
        assert a == b
        assert a != c

    def test_null_injector_is_inert(self):
        assert NULL_FAULTS.active is False
        assert NULL_FAULTS.backoff_ms(5) == 0.0
        assert not NULL_FAULTS.is_down(0)
        assert NULL_FAULTS.link_ok(0, 1)
        # No counters: fault paths must guard on .active before counting.
        assert not hasattr(NULL_FAULTS, "counters")


class TestDiskStall:
    def test_stall_delays_completion(self):
        def finish_time(plan):
            svc = make_faulted(plan, sizes=(16.0,))
            svc.submit(svc.layer.read(svc.node(0), 0))
            svc.run()
            return svc.sim.now

        base = finish_time(FaultPlan.none())
        stalled = finish_time(
            FaultPlan((FaultEvent("disk_stall", 0.0, node=0, extra_ms=25.0),))
        )
        # The head is frozen for the stall's full 25 ms; the request
        # spends under a millisecond of protocol time reaching the disk,
        # so the completion slips by (almost) the whole stall.
        assert stalled >= 25.0
        assert stalled >= base + 24.0


class TestCrashRecovery:
    """The middleware's fail-stop repair (DESIGN.md S14)."""

    def test_crash_clears_exactly_its_directory_entries(self):
        plan = FaultPlan((FaultEvent("crash", 1000.0, node=1),))
        svc = make_faulted(plan)

        def flow():
            yield svc.submit(svc.layer.read(svc.node(1), 1))  # masters at 1
            yield svc.submit(svc.layer.read(svc.node(0), 0))  # masters at 0

        svc.submit(flow())
        svc.run(until=500.0)
        assert svc.layer.directory.masters_at(1) == 2
        assert svc.layer.directory.masters_at(0) == 2
        svc.run()  # the crash fires at t=1000
        # Node 1's entries are gone (no surviving replica), node 0's are
        # untouched; node 1's memory is empty.
        assert svc.layer.directory.masters_at(1) == 0
        assert svc.layer.directory.masters_at(0) == 2
        assert len(svc.layer.caches[1]) == 0
        fc = svc.faults.counters
        assert fc.get("cc_masters_purged") == 2
        assert fc.get("cc_blocks_lost") == 2
        assert fc.get("cc_masters_reelected") == 0
        svc.layer.check_invariants()

    def test_youngest_replica_reelected_in_place(self):
        plan = FaultPlan((FaultEvent("crash", 1000.0, node=1),))
        svc = make_faulted(plan)

        def flow():
            yield svc.submit(svc.layer.read(svc.node(1), 1))  # masters at 1
            yield svc.submit(svc.layer.read(svc.node(2), 1))  # replica at 2
            yield svc.submit(svc.layer.read(svc.node(3), 1))  # replica at 3

        svc.submit(flow())
        svc.run()
        # Node 3 read last, so its replicas are youngest: promoted in
        # place, directory updated, no data movement.
        for blk in svc.layer.layout.blocks(1):
            assert svc.layer.directory.lookup(blk) == 3
            assert svc.layer.caches[3].is_master(blk)
            assert blk not in svc.layer.caches[1]
        assert svc.faults.counters.get("cc_masters_reelected") == 2
        svc.layer.check_invariants()

    def test_reelection_tie_breaks_to_lowest_node_id(self):
        svc = make_faulted(FaultPlan((FaultEvent("crash", 1e9, node=1),)))
        blk = BlockId(0, 0)
        svc.layer.caches[3].insert(blk, master=False, age=5.0)
        svc.layer.caches[2].insert(blk, master=False, age=5.0)
        assert svc.layer._youngest_replica(blk, exclude=1) == 2

    def test_reelection_skips_down_nodes(self):
        plan = FaultPlan((
            FaultEvent("crash", 900.0, node=2),   # replica holder dies first
            FaultEvent("crash", 1000.0, node=1),  # then the master holder
        ))
        svc = make_faulted(plan)

        def flow():
            yield svc.submit(svc.layer.read(svc.node(1), 1))
            yield svc.submit(svc.layer.read(svc.node(2), 1))

        svc.submit(flow())
        svc.run()
        # The only replica holder was already down: nothing to promote.
        for blk in svc.layer.layout.blocks(1):
            assert svc.layer.directory.lookup(blk) is None
        assert svc.faults.counters.get("cc_masters_reelected") == 0
        svc.layer.check_invariants()

    def test_restart_rejoins_cold_and_reregisters_only_refetched(self):
        plan = FaultPlan((
            FaultEvent("crash", 1000.0, node=1),
            FaultEvent("restart", 2000.0, node=1),
        ))
        svc = make_faulted(plan, sizes=(16.0,) * 8)

        def before():
            yield svc.submit(svc.layer.read(svc.node(1), 1))  # file 1 at 1
            yield svc.submit(svc.layer.read(svc.node(1), 5))  # file 5 at 1

        svc.submit(before())
        svc.run(until=500.0)
        assert svc.layer.directory.masters_at(1) == 4
        svc.run(until=2500.0)  # crash + restart both fired
        # Cold rejoin: empty memory, nothing re-registered by itself.
        assert len(svc.layer.caches[1]) == 0
        assert svc.layer.directory.masters_at(1) == 0
        # Only a re-fetch through the normal read path re-creates masters.
        svc.submit(svc.layer.read(svc.node(1), 1))
        svc.run()
        assert svc.layer.directory.masters_at(1) == 2
        for blk in svc.layer.layout.blocks(1):
            assert svc.layer.caches[1].is_master(blk)
        for blk in svc.layer.layout.blocks(5):  # never re-read: still gone
            assert svc.layer.directory.lookup(blk) is None
        assert svc.faults.counters.get("cc_dirty_lost") == 0
        svc.layer.check_invariants()

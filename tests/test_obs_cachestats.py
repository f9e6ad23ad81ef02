"""Tests for the CacheScope cache-behavior telemetry.

Two layers: unit tests drive the scope's hooks directly and check the
incremental census arithmetic; integration tests run the golden-trace
workload with ``cachestats`` on and assert the paper's mechanism shows
up — CC-KMC never evicts a master while holding a replica, CC-Basic
does constantly, and KMC keeps a smaller share of aggregate memory
wasted on duplicates.  A final set asserts the scope is *passive*: the
trace digest with telemetry enabled matches the committed goldens.
"""

import json
from pathlib import Path

import pytest

from repro.cache.block import BlockId
from repro.cache.blockcache import BlockCache
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.obs import Observability
from repro.obs.cachestats import (
    LEDGER_SIZE, NULL_CACHESCOPE, CacheScope, NullCacheScope,
)
from repro.traces import datasets

GOLDEN_DIR = Path(__file__).parent / "golden"


class FakeSim:
    def __init__(self):
        self.now = 0.0


# ---------------------------------------------------------------------------
# unit: census arithmetic
# ---------------------------------------------------------------------------
class TestCensus:
    def test_first_copy_is_not_a_duplicate(self):
        scope = CacheScope()
        scope.on_insert(0, "b", True, kb=4.0)
        assert scope.resident_copies == 1
        assert scope.duplicate_copies == 0
        assert scope.duplicate_share == 0.0

    def test_second_copy_counts_as_duplicate(self):
        scope = CacheScope()
        scope.on_insert(0, "b", True, kb=4.0)
        scope.on_insert(1, "b", False, kb=4.0)
        assert scope.resident_copies == 2
        assert scope.duplicate_copies == 1
        assert scope.duplicate_kb == pytest.approx(4.0)
        assert scope.duplicate_share == pytest.approx(0.5)

    def test_remove_returns_census_to_zero(self):
        scope = CacheScope()
        scope.on_insert(0, "b", True, kb=4.0)
        scope.on_insert(1, "b", False, kb=4.0)
        scope.on_remove(1, "b", False, kb=4.0)
        scope.on_remove(0, "b", True, kb=4.0)
        assert scope.resident_copies == 0
        assert scope.resident_kb == pytest.approx(0.0)
        assert scope.duplicate_copies == 0
        assert scope.duplicate_kb == pytest.approx(0.0)

    def test_drained_levels_snap_to_exact_zero(self):
        """+= / -= float accumulation must never leave '-0.0 KB' after
        the last copy leaves (caught on a live run: fractional block
        sizes add and subtract in different orders)."""
        scope = CacheScope()
        sizes = [1.1, 2.3, 0.7, 3.9]
        scope.on_insert(0, "b", True, kb=0.3)
        scope.on_insert(1, "b", False, kb=0.3)
        for i, kb in enumerate(sizes):
            scope.on_insert(1, f"x{i}", True, kb=kb)
        scope.on_remove(0, "b", True, kb=0.3)
        scope.on_remove(1, "b", False, kb=0.3)
        for i, kb in enumerate(sizes):
            scope.on_remove(1, f"x{i}", True, kb=kb)
        assert scope.duplicate_kb == 0.0
        assert scope.resident_kb == 0.0
        assert scope.duplicate_share == 0.0
        assert scope.per_node_census()[1]["kb"] == 0.0

    def test_removing_one_of_two_copies_removes_the_duplicate(self):
        scope = CacheScope()
        scope.on_insert(0, "b", True, kb=4.0)
        scope.on_insert(1, "b", False, kb=4.0)
        scope.on_remove(0, "b", True, kb=4.0)
        # One copy remains: it is not a duplicate of anything.
        assert scope.duplicate_copies == 0
        assert scope.resident_copies == 1

    def test_per_node_census_tracks_roles(self):
        scope = CacheScope()
        scope.on_insert(0, "a", True, kb=1.0)
        scope.on_insert(0, "b", False, kb=1.0)
        scope.on_insert(1, "a", False, kb=1.0)
        census = scope.per_node_census()
        assert census[0] == {"masters": 1, "nonmasters": 1, "kb": 2.0}
        assert census[1] == {"masters": 0, "nonmasters": 1, "kb": 1.0}

    def test_promote_moves_role_without_touching_copies(self):
        scope = CacheScope()
        scope.on_insert(0, "a", False, kb=1.0)
        scope.on_promote(0, "a")
        census = scope.per_node_census()
        assert census[0]["masters"] == 1
        assert census[0]["nonmasters"] == 0
        assert scope.resident_copies == 1

    def test_census_drift_agrees_with_blockcache(self):
        scope = CacheScope()
        cache = BlockCache(node_id=0, capacity_blocks=4, scope=scope)
        cache.insert(("f", 0), master=True, age=0.0)
        cache.insert(("f", 1), master=False, age=1.0)
        assert scope.census_drift([cache]) == []
        cache.remove(("f", 0))
        assert scope.census_drift([cache]) == []
        # Poison the scope's books: drift must be detected.
        scope._node_masters[0] = 7
        assert scope.census_drift([cache])


# ---------------------------------------------------------------------------
# unit: eviction semantics
# ---------------------------------------------------------------------------
class TestEvictions:
    def test_policy_master_eviction_with_replica_is_violation(self):
        scope = CacheScope()
        scope.on_evict(0, "b", True, 3, "drop")
        assert scope.violations() == 1
        totals = scope.snapshot()["totals"]
        assert totals["master_evictions"] == 1

    def test_policy_master_eviction_without_replica_is_clean(self):
        scope = CacheScope()
        scope.on_evict(0, "b", True, 0, "drop")
        assert scope.violations() == 0

    def test_nonmaster_eviction_is_never_a_violation(self):
        scope = CacheScope()
        scope.on_evict(0, "b", False, 5, "drop")
        assert scope.violations() == 0
        assert scope.snapshot()["totals"]["nonmaster_evictions"] == 1

    @pytest.mark.parametrize(
        "reason", ["displaced", "invalidate", "crash", "write_race",
                   "ownership"]
    )
    def test_protocol_fallout_is_ledger_only(self, reason):
        """Non-policy removals are provenance, not replacement decisions:
        a forwarded master legally displaces the destination's oldest
        master even while replicas are held."""
        scope = CacheScope()
        scope.on_evict(0, "b", True, 3, reason)
        totals = scope.snapshot()["totals"]
        assert scope.violations() == 0
        assert totals["master_evictions"] == 0
        assert totals["evictions_by_reason"] == {reason: 1}

    def test_ledger_is_a_ring_buffer(self):
        scope = CacheScope()
        for i in range(LEDGER_SIZE + 2):
            scope.on_evict(0, f"b{i}", False, 0, "drop")
        keys = [e["key"] for e in scope.ledger]
        assert keys == [f"b{i}" for i in range(2, LEDGER_SIZE + 2)]

    def test_ledger_keeps_the_newest_entries_as_dicts(self, tmp_path):
        """Past the ring's size the ledger holds the newest LEDGER_SIZE
        evictions, each the same dict the scope has always exported:
        ``dest`` only when given, ``master`` a bool, ``key`` printable;
        the snapshot and the JSONL dump carry them unchanged."""
        sim = FakeSim()
        scope = CacheScope()
        scope.attach(sim)
        want = []
        for i in range(LEDGER_SIZE + 50):
            sim.now = i * 0.5
            key, text = (BlockId(i, i % 3), f"{i}:{i % 3}") if i % 2 \
                else (i, str(i))
            dest = i % 4 if i % 5 == 0 else None
            reason = ("drop", "forward", "crash")[i % 3]
            scope.on_evict(i % 4, key, i % 3, i % 7, reason, dest=dest)
            entry = {"t_ms": i * 0.5, "node": i % 4, "key": text,
                     "master": i % 3 != 0, "nonmasters_held": i % 7,
                     "reason": reason}
            if dest is not None:
                entry["dest"] = dest
            want.append(entry)
        want = want[-LEDGER_SIZE:]
        assert list(scope.ledger) == want
        assert [list(e) for e in scope.ledger] == [list(e) for e in want]
        assert all(type(e["master"]) is bool for e in scope.ledger)
        assert scope.snapshot()["ledger"] == want
        path = tmp_path / "cs.jsonl"
        scope.dump_jsonl(path)
        lines = path.read_text().splitlines()
        assert lines[-LEDGER_SIZE:] == [
            json.dumps(dict(e, kind="evict"), sort_keys=True, default=float)
            for e in want]
        assert not any('"evict"' in line for line in lines[:-LEDGER_SIZE])

    def test_ledger_records_destination(self):
        scope = CacheScope()
        scope.on_evict(0, ("f", 3), True, 1, "forward", dest=2)
        entry = scope.ledger[-1]
        assert entry["dest"] == 2
        assert entry["key"] == "f:3"
        assert entry["nonmasters_held"] == 1


# ---------------------------------------------------------------------------
# unit: forwarding hops / stale lookups
# ---------------------------------------------------------------------------
class TestForwarding:
    def test_hop_chain_grows_per_forward(self):
        scope = CacheScope()
        scope.on_forward("b", "installed")
        scope.on_forward("b", "installed")
        scope.on_forward("b", "installed")
        assert scope.snapshot()["hop_histogram"] == {"1": 1, "2": 1, "3": 1}

    def test_master_exit_resets_the_chain(self):
        scope = CacheScope()
        scope.on_forward("b", "installed")
        scope.on_master_exit("b")
        scope.on_forward("b", "installed")
        assert scope.snapshot()["hop_histogram"] == {"1": 2}

    def test_dropped_outcome_ends_the_chain(self):
        scope = CacheScope()
        scope.on_forward("b", "installed")
        scope.on_forward("b", "dropped")
        scope.on_forward("b", "installed")
        hist = scope.snapshot()["hop_histogram"]
        assert hist == {"1": 2, "2": 1}

    def test_fresh_master_from_disk_restarts_the_chain(self):
        scope = CacheScope()
        scope.on_forward("b", "installed")
        scope.on_master_reset("b")
        scope.on_forward("b", "installed")
        assert scope.snapshot()["hop_histogram"] == {"1": 2}

    def test_outcomes_are_tallied(self):
        scope = CacheScope()
        scope.on_forward("a", "installed")
        scope.on_forward("b", "merged")
        scope.on_forward("c", "dropped")
        totals = scope.snapshot()["totals"]
        assert totals["forwards"] == 3
        assert totals["forward_outcomes"] == {
            "dropped": 1, "installed": 1, "merged": 1,
        }

    def test_stale_lookups_accumulate(self):
        scope = CacheScope()
        scope.on_stale(2)
        scope.on_stale()
        assert scope.snapshot()["totals"]["stale_lookups"] == 3


# ---------------------------------------------------------------------------
# unit: windows, export, null scope
# ---------------------------------------------------------------------------
class TestWindowsAndExport:
    def test_time_weighted_duplicate_share(self):
        """The share is a ratio of byte-time integrals: 1 of 2 KB
        duplicated for 50 ms then 0 of 1 KB for 50 ms gives
        50 / (100 + 50) = 1/3 — not the arithmetic mean of 0.5 and 0."""
        sim = FakeSim()
        scope = CacheScope()
        scope.attach(sim)
        scope.on_insert(0, "b", True, kb=1.0)
        scope.on_insert(1, "b", False, kb=1.0)   # share now 0.5
        sim.now = 50.0
        scope.on_remove(1, "b", False, kb=1.0)   # share back to 0.0
        sim.now = 100.0
        rows = scope.snapshot()["windows"]
        assert len(rows) == 1
        assert rows[0]["duplicate_share"] == pytest.approx(1.0 / 3.0)

    def test_window_rows_carry_event_counts(self):
        sim = FakeSim()
        scope = CacheScope()
        scope.attach(sim)
        scope.on_insert(0, "b", True, kb=1.0)
        sim.now = 10.0
        scope.on_evict(0, "b", True, 2, "drop")
        sim.now = 150.0
        scope.on_evict(0, "c", False, 0, "drop")
        rows = scope.snapshot()["windows"]
        assert len(rows) == 2
        assert rows[0]["violations"] == 1.0
        assert rows[1]["nonmaster_evictions"] == 1.0

    def test_dump_and_load_round_trip(self, tmp_path):
        sim = FakeSim()
        scope = CacheScope()
        scope.attach(sim)
        scope.on_insert(0, "b", True, kb=2.0)
        scope.on_insert(1, "b", False, kb=2.0)
        sim.now = 120.0
        scope.on_evict(1, "b", False, 1, "drop")
        scope.on_forward("b", "installed")
        path = tmp_path / "cs.jsonl"
        scope.dump_jsonl(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        direct = json.loads(json.dumps(scope.snapshot(), default=float))
        # One summary line, then one line per window, then the ledger.
        summary, rest = lines[0], lines[1:]
        assert summary == {
            "kind": "summary",
            "window_ms": 100.0,
            "totals": direct["totals"],
            "per_node": direct["per_node"],
            "hop_histogram": {"1": 1},
        }
        kinds = [r.pop("kind") for r in rest]
        n_windows = len(direct["windows"])
        assert n_windows >= 1
        assert kinds == ["window"] * n_windows + ["evict"]
        assert rest[:n_windows] == direct["windows"]
        assert rest[n_windows:] == direct["ledger"]

    def test_null_scope_is_inert(self):
        scope = NullCacheScope()
        assert not scope.active
        scope.on_insert(0, "b", True)
        scope.on_evict(0, "b", True, 3, "drop")
        scope.on_forward("b", "installed")
        scope.on_stale()
        assert not NULL_CACHESCOPE.active

    def test_observability_wires_cachescope(self):
        on = Observability(cachestats=True)
        off = Observability()
        assert on.cachescope.active
        assert not off.cachescope.active


# ---------------------------------------------------------------------------
# integration: the paper's mechanism
# ---------------------------------------------------------------------------
def _workload():
    return datasets.scaled("rutgers", 0.01, num_requests=400)


def _run(system, cachestats=True):
    cfg = ExperimentConfig(
        system=system,
        trace=_workload(),
        num_nodes=4,
        mem_mb_per_node=0.5,
        num_clients=8,
        seed=0,
    )
    obs = Observability(trace=True, cachestats=cachestats)
    run_experiment(cfg, obs=obs)
    return obs


@pytest.fixture(scope="module")
def kmc_obs():
    return _run("cc-kmc")


@pytest.fixture(scope="module")
def basic_obs():
    return _run("cc-basic")


class TestMechanism:
    def test_kmc_never_violates_by_construction(self, kmc_obs):
        assert kmc_obs.cachescope.violations() == 0

    def test_basic_violates_constantly(self, basic_obs):
        assert basic_obs.cachescope.violations() > 0

    def test_kmc_wastes_less_memory_on_duplicates(self, kmc_obs, basic_obs):
        """The paper's explanation for Figure 2's gap, measured: KMC's
        eviction preference keeps the duplicate-byte share below
        global-LRU's over the run."""

        def mean_share(obs):
            rows = obs.cachescope.snapshot()["windows"]
            shares = [r["duplicate_share"] for r in rows]
            return sum(shares) / len(shares)

        assert mean_share(kmc_obs) < mean_share(basic_obs)

    def test_census_matches_final_cache_contents(self, kmc_obs, basic_obs):
        for obs in (kmc_obs, basic_obs):
            snap = obs.cachescope.snapshot()
            totals = snap["totals"]
            per_node = snap["per_node"]
            assert totals["resident_copies"] == sum(
                row["masters"] + row["nonmasters"]
                for row in per_node.values()
            )

    def test_directory_census_agrees_with_cache_masters(self, kmc_obs):
        totals = kmc_obs.cachescope.snapshot()["totals"]
        per_node = kmc_obs.cachescope.snapshot()["per_node"]
        assert totals["directory_masters_per_node"] == {
            node: row["masters"] for node, row in per_node.items()
        }

    def test_press_has_no_masters_and_no_violations(self):
        obs = _run("press")
        totals = obs.cachescope.snapshot()["totals"]
        assert totals["violations"] == 0
        assert totals["master_evictions"] == 0
        assert totals["resident_copies"] > 0


@pytest.mark.parametrize("system", ["cc-basic", "cc-sched", "cc-kmc", "press"])
def test_cachestats_is_passive(system):
    """Enabling cache telemetry must not perturb the simulation: the
    trace digest with cachestats on equals the committed golden digest
    (which is produced with cachestats off)."""
    path = GOLDEN_DIR / f"{system}.json"
    assert path.exists(), "golden fingerprints must exist for this check"
    golden = json.loads(path.read_text())
    obs = _run(system, cachestats=True)
    assert obs.tracer.digest() == golden["trace_digest"]
    assert len(obs.tracer.records) == golden["trace_spans"]

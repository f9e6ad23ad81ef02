"""Property tests for the consistent-hash ring and stable hash.

Three claims the PartitionedDirectory leans on (DESIGN.md S19):

* **Cross-process determinism** — ``stable_hash`` is a keyed BLAKE2b
  digest, not the builtin ``hash()``: the same (key, seed) maps to the
  same point in every process regardless of ``PYTHONHASHSEED``, so a
  sharded sweep's workers and a re-run agree on every block's home.
* **Bounded movement** — adding or removing one node remaps only ~K/N
  of the keys, all of them to the joining node (or away from the
  leaving one).  This is the consistent-hashing contract the crash
  repair depends on: a crash invalidates one arc, not the directory.
* **Virtual-node spread** — with enough virtual nodes per node the
  arc sizes concentrate: max/mean ownership stays within a small
  constant, so no node's partition is pathologically hot.

Plus the staleness bookkeeping of the directory itself: a routing
answer never reflects state older than ``staleness_ms``.
"""

import subprocess
import sys

import pytest

from repro.cache.block import BlockId
from repro.cache.hashring import HashRing, PartitionedDirectory, stable_hash

KEYS = [f"b:{f}:{i}" for f in range(200) for i in range(10)]


# ---------------------------------------------------------------------------
# stable_hash
# ---------------------------------------------------------------------------
def test_stable_hash_pinned_values():
    # Pinned across processes, platforms and Python versions: these are
    # keyed BLAKE2b digests, so any drift means the hash (and with it
    # every committed partitioned golden) changed.
    assert stable_hash("x") == 10265795031950503558
    assert stable_hash("x", 1) == 16621578663882389290
    assert stable_hash("b:7:3") == 12912738216912810184


def test_stable_hash_seed_separates():
    assert stable_hash("x", 0) != stable_hash("x", 1)
    assert stable_hash("x", 0) == stable_hash("x", 0)


def test_stable_hash_is_not_process_salted():
    # The builtin hash() would differ under another PYTHONHASHSEED; the
    # ring hash must not (SL02: no ambient process randomness).
    code = (
        "import sys; sys.path.insert(0, 'src'); "
        "from repro.cache.hashring import stable_hash; "
        "print(stable_hash('x'), stable_hash('b:7:3', 5))"
    )
    outs = set()
    for hashseed in ("0", "12345"):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin"},
            cwd=".",
        )
        outs.add(proc.stdout.strip())
    assert len(outs) == 1
    assert outs.pop().split()[0] == "10265795031950503558"


# ---------------------------------------------------------------------------
# ring movement and spread
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("vnodes", [32, 64])
def test_join_moves_few_keys_and_only_to_new_node(vnodes):
    ring = HashRing(range(16), vnodes=vnodes, seed=0)
    before = {k: ring.owner(k) for k in KEYS}
    ring.add_node(16)
    after = {k: ring.owner(k) for k in KEYS}
    moved = [k for k in KEYS if before[k] != after[k]]
    # Ideal movement is 1/(N+1) of the keys; allow 2.5x for vnode noise.
    assert len(moved) <= 2.5 * len(KEYS) / 17
    assert moved, "a joining node must take over some keys"
    assert all(after[k] == 16 for k in moved)


@pytest.mark.parametrize("vnodes", [32, 64])
def test_leave_moves_only_the_leaving_nodes_keys(vnodes):
    ring = HashRing(range(16), vnodes=vnodes, seed=0)
    before = {k: ring.owner(k) for k in KEYS}
    ring.remove_node(3)
    after = {k: ring.owner(k) for k in KEYS}
    moved = [k for k in KEYS if before[k] != after[k]]
    assert len(moved) <= 2.5 * len(KEYS) / 16
    assert all(before[k] == 3 for k in moved)
    assert all(before[k] != 3 or after[k] != 3 for k in KEYS)


def test_join_then_leave_roundtrips():
    ring = HashRing(range(8), vnodes=32, seed=0)
    before = {k: ring.owner(k) for k in KEYS}
    ring.add_node(8)
    ring.remove_node(8)
    assert {k: ring.owner(k) for k in KEYS} == before


@pytest.mark.parametrize("num_nodes", [8, 16])
def test_vnode_spread_bounded(num_nodes):
    ring = HashRing(range(num_nodes), vnodes=64, seed=0)
    counts = dict.fromkeys(range(num_nodes), 0)
    total = 20_000
    for i in range(total):
        counts[ring.owner(f"k:{i}")] += 1
    mean = total / num_nodes
    assert max(counts.values()) / mean < 1.75
    assert min(counts.values()) / mean > 0.4


def test_ring_owner_total_and_deterministic():
    a = HashRing(range(5), vnodes=16, seed=7)
    b = HashRing([4, 2, 0, 3, 1], vnodes=16, seed=7)  # insertion order free
    for k in KEYS[:100]:
        owner = a.owner(k)
        assert 0 <= owner < 5
        assert b.owner(k) == owner


def test_ring_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        HashRing([], vnodes=8)
    with pytest.raises(ValueError):
        HashRing([1, 1], vnodes=8)
    with pytest.raises(ValueError):
        HashRing([0], vnodes=0)


# ---------------------------------------------------------------------------
# PartitionedDirectory staleness bookkeeping
# ---------------------------------------------------------------------------
class _FakeSim:
    """Stand-in clock: the directory only reads ``.now``."""

    def __init__(self):
        self.now = 0.0


def test_zero_staleness_routes_are_truth():
    d = PartitionedDirectory(4, staleness_ms=0.0)
    blk = BlockId(1, 0)
    d.set_master(blk, 2)
    assert d.route_lookup(blk) == d.lookup(blk) == 2
    d.clear_master(blk)
    assert d.route_lookup(blk) is None
    assert d.stale_served == 0


def test_staleness_window_serves_old_view_then_expires():
    sim = _FakeSim()
    d = PartitionedDirectory(4, staleness_ms=1.0)
    d.attach(sim)
    blk = BlockId(1, 0)
    d.set_master(blk, 2)          # stale view: None until t=1.0
    assert d.lookup(blk) == 2      # consistency path sees truth at once
    assert d.route_lookup(blk) is None
    sim.now = 0.5
    d.set_master(blk, 3)           # does NOT extend the window (oldest wins)
    assert d.route_lookup(blk) is None
    sim.now = 0.99
    assert d.route_lookup(blk) is None
    sim.now = 1.0                  # window closed: truth from here on
    assert d.route_lookup(blk) == 3
    assert d.stale_served == 3
    assert d.lookups == 4


def test_staleness_bound_holds_under_churn():
    # Invariant: route_lookup at time t equals the authoritative value
    # as it stood at some instant in [t - staleness, t].  Simulated time
    # only moves forward, so mutations and queries share one timeline.
    sim = _FakeSim()
    d = PartitionedDirectory(4, staleness_ms=2.0)
    d.attach(sim)
    blk = BlockId(0, 0)
    history = [(0.0, None)]  # (time, truth-from-here) timeline
    timeline = [
        ("set", 0.0, 1), ("query", 0.4, None), ("set", 0.5, 2),
        ("query", 0.9, None), ("clear", 1.0, None), ("query", 1.4, None),
        ("set", 1.5, 3), ("query", 1.9, None), ("query", 2.1, None),
        ("query", 3.4, None), ("set", 4.0, 0), ("query", 4.2, None),
        ("query", 6.1, None),
    ]
    for op, t, holder in timeline:
        sim.now = t
        if op == "set":
            d.set_master(blk, holder)
            history.append((t, holder))
        elif op == "clear":
            d.clear_master(blk)
            history.append((t, None))
        else:
            answer = d.route_lookup(blk)
            window = [v for (ts, v) in history if t - 2.0 <= ts <= t]
            # the value carried into the window from before its left
            # edge was still true at that edge, so it counts too
            older = [v for (ts, v) in history if ts < t - 2.0]
            if older:
                window.insert(0, older[-1])
            assert answer in window, (t, answer, window)
    assert d.stale_served > 0  # the windows actually exercised staleness


def test_crash_never_serves_dead_node_from_stale_record():
    sim = _FakeSim()
    d = PartitionedDirectory(4, staleness_ms=0.5)
    d.attach(sim)
    # A block homed away from node 1, so the crash invalidation under
    # test is the stale-record one, not the lost-partition one.
    blk = next(
        BlockId(f, 0) for f in range(16) if d.home_of(BlockId(f, 0)) != 1
    )
    d.set_master(blk, 1)           # window [0, 0.5) records None
    sim.now = 1.0                  # ...which has expired by now
    d.set_master(blk, 2)           # fresh stale record names node 1
    assert d._stale[blk][0] == 1
    d.partition_crash(1)           # node 1 is a corpse
    assert d.route_lookup(blk) == 2


def test_partition_crash_reports_lost_homed_entries():
    d = PartitionedDirectory(4, staleness_ms=0.0)
    entries = {}
    for f in range(40):
        blk = BlockId(f, 0)
        holder = f % 4
        d.set_master(blk, holder)
        entries[blk] = holder
    victim = 2
    homed_elsewhere_held = {
        blk: holder for blk, holder in entries.items()
        if d.home_of(blk) == victim and holder != victim
    }
    lost = d.partition_crash(victim)
    assert dict(lost) == homed_elsewhere_held
    for blk in homed_elsewhere_held:
        assert d.lookup(blk) is None      # directory knowledge is gone...
    for blk, holder in entries.items():
        if blk not in homed_elsewhere_held and holder != victim:
            assert d.lookup(blk) == holder  # ...but other arcs untouched
    assert victim not in d.ring.nodes
    d.partition_rejoin(victim)
    assert victim in d.ring.nodes


def test_partition_crash_keeps_last_ring_member():
    d = PartitionedDirectory(2, staleness_ms=0.0)
    d.partition_crash(0)
    assert d.partition_crash(1) == []     # refuses to empty the ring
    assert d.ring.nodes == [1]
    assert d.home_of(BlockId(0, 0)) == 1  # home_of stays total


def test_partitioned_directory_validates():
    with pytest.raises(ValueError):
        PartitionedDirectory(0)
    with pytest.raises(ValueError):
        PartitionedDirectory(4, staleness_ms=-1.0)


@pytest.mark.parametrize("directory, expected", [
    ("perfect", "GlobalDirectory"),
    ("hints", "HintDirectory"),
    ("partitioned", "PartitionedDirectory"),
])
def test_facade_builds_the_configured_directory(directory, expected):
    """CoopCacheService wires the directory its config names, as the
    experiment runner does."""
    from repro.core import CoopCacheConfig, CoopCacheService

    svc = CoopCacheService(
        file_sizes_kb=[16.0] * 4, num_nodes=4, mem_mb_per_node=1.0,
        config=CoopCacheConfig(directory=directory),
    )
    assert type(svc.layer.directory).__name__ == expected

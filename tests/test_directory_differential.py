"""Differential tests: PartitionedDirectory versus the oracle directory.

The two-implementation seam (DESIGN.md S19) rests on one claim: with a
**zero staleness window** (and lookup hop-charging off), the
hash-partitioned directory is *observationally identical* to the
paper's perfect GlobalDirectory — every protocol answer (``lookup`` /
``route_lookup`` / ``census`` / ``masters_at`` / ``len`` / purge lists)
agrees, through arbitrary interleavings of registrations, drops,
purges, crashes and rejoins.  Partitioning then only ever *adds* costs
(hops, staleness), never changes what the protocol computes.

Hypothesis drives both implementations with the same adversarial op sequences at the unit
level; full-system equivalence (byte-identical traces on the golden
workload) is pinned at the bottom, and oracle-mode golden neutrality
lives in ``test_golden_trace.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.block import BlockId
from repro.cache.directory import GlobalDirectory
from repro.cache.hashring import PartitionedDirectory

NUM_NODES = 4
#: Small pools so collisions (re-registrations, repeated purges of the
#: same node, crash-then-restart cycles) are the common case.
BLOCKS = [BlockId(f, i) for f in range(6) for i in range(3)]

_BLOCK = st.integers(min_value=0, max_value=len(BLOCKS) - 1)
_NODE = st.integers(min_value=0, max_value=NUM_NODES - 1)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), _BLOCK, _NODE),
        st.tuples(st.just("clear"), _BLOCK),
        st.tuples(st.just("lookup"), _BLOCK),
        st.tuples(st.just("route"), _BLOCK),
        st.tuples(st.just("purge"), _NODE),
        st.tuples(st.just("masters_at"), _NODE),
        st.just(("census",)),
        st.tuples(st.just("crash"), _NODE),
        st.tuples(st.just("restart"), _NODE),
    ),
    min_size=1,
    max_size=150,
)


def _pair():
    oracle = GlobalDirectory()
    part = PartitionedDirectory(NUM_NODES, seed=0, staleness_ms=0.0)
    return oracle, part


# ---------------------------------------------------------------------------
# 1. Op-level differential
# ---------------------------------------------------------------------------
@given(ops=_OPS)
@settings(max_examples=300, deadline=None)
def test_zero_staleness_partitioned_matches_oracle(ops):
    """Any interleaving of directory ops — including crash/rejoin cycles
    with the middleware's re-registration protocol — leaves the two
    implementations answering identically."""
    oracle, part = _pair()
    for op in ops:
        if op[0] == "set":
            blk, node = BLOCKS[op[1]], op[2]
            oracle.set_master(blk, node)
            part.set_master(blk, node)
        elif op[0] == "clear":
            blk = BLOCKS[op[1]]
            oracle.clear_master(blk)
            part.clear_master(blk)
        elif op[0] == "lookup":
            blk = BLOCKS[op[1]]
            assert oracle.lookup(blk) == part.lookup(blk)
        elif op[0] == "route":
            # Zero window: the routed answer IS the authoritative one.
            blk = BLOCKS[op[1]]
            assert part.route_lookup(blk) == oracle.lookup(blk)
        elif op[0] == "purge":
            # Sorted compare: crash re-registration may legally reorder
            # dict insertion; exact-order equality (crash-free) is
            # pinned separately below.
            assert sorted(oracle.purge_node(op[1])) == \
                sorted(part.purge_node(op[1]))
        elif op[0] == "masters_at":
            assert oracle.masters_at(op[1]) == part.masters_at(op[1])
        elif op[0] == "census":
            assert oracle.census() == part.census()
        elif op[0] == "crash":
            node = op[1]
            # The middleware's crash hook, end to end: ring repair first
            # (forget the dead home's partition), then the usual orphan
            # purge, then re-registration of lost entries by their
            # still-alive holders.  The oracle's crash is just the purge.
            lost = part.partition_crash(node)
            got = sorted(part.purge_node(node))
            assert got == sorted(oracle.purge_node(node))
            for blk, holder in lost:
                assert holder != node
                part.set_master(blk, holder)
        elif op[0] == "restart":
            part.partition_rejoin(op[1])
        assert len(oracle) == len(part)
    assert oracle.census() == part.census()
    for blk in BLOCKS:
        assert oracle.lookup(blk) == part.lookup(blk)
        assert part.route_lookup(blk) == oracle.lookup(blk)
    assert part.stale_served == 0  # zero window: truth only, always


@given(ops=_OPS)
@settings(max_examples=100, deadline=None)
def test_crash_free_purge_order_identical(ops):
    """Without crashes, the purge *order* (which drives repair event
    order in the simulator) is also entry-for-entry identical."""
    oracle, part = _pair()
    for op in ops:
        if op[0] == "set":
            blk, node = BLOCKS[op[1]], op[2]
            oracle.set_master(blk, node)
            part.set_master(blk, node)
        elif op[0] == "clear":
            blk = BLOCKS[op[1]]
            oracle.clear_master(blk)
            part.clear_master(blk)
        elif op[0] == "purge":
            assert oracle.purge_node(op[1]) == part.purge_node(op[1])
    assert oracle.purge_node(0) == part.purge_node(0)


def test_crash_reregistration_restores_survivor_entries():
    """Deterministic end-to-end repair: after crash + purge + re-register
    the partitioned map equals the oracle's post-purge map exactly."""
    oracle, part = _pair()
    for f in range(6):
        for i in range(3):
            blk = BlockId(f, i)
            oracle.set_master(blk, (f + i) % NUM_NODES)
            part.set_master(blk, (f + i) % NUM_NODES)
    victim = 3  # owns the largest arc of this seeded ring
    lost = part.partition_crash(victim)
    assert lost, "the seeded layout must lose some homed entries"
    assert sorted(part.purge_node(victim)) == \
        sorted(oracle.purge_node(victim))
    for blk, holder in lost:
        part.set_master(blk, holder)
    assert part.census() == oracle.census()
    for f in range(6):
        for i in range(3):
            blk = BlockId(f, i)
            assert part.lookup(blk) == oracle.lookup(blk)


# ---------------------------------------------------------------------------
# 2. Full-system differential
# ---------------------------------------------------------------------------
def _golden_workload():
    from repro.traces import datasets

    return datasets.scaled("rutgers", 0.01, num_requests=400)


def _run(config, workload):
    from repro.experiments.runner import ExperimentConfig, run_experiment
    from repro.obs import Observability

    cfg = ExperimentConfig(
        system=config, trace=workload, num_nodes=4,
        mem_mb_per_node=0.5, num_clients=8, seed=0,
    )
    obs = Observability(trace=True)
    run_experiment(cfg, obs=obs)
    return obs


def test_costless_partitioned_system_run_matches_oracle(monkeypatch):
    """The golden workload, end to end: partitioned directory with zero
    staleness and hop-charging off produces the byte-identical kernel
    event stream (trace JSONL) — and metrics identical up to the two
    partitioned-only counters the snapshot adds."""
    from repro.core.config import variant

    monkeypatch.delenv("REPRO_DIRECTORY", raising=False)
    workload = _golden_workload()
    oracle_obs = _run(variant("cc-kmc"), workload)
    part_obs = _run(
        variant("cc-kmc").with_overrides(
            directory="partitioned", dir_staleness_ms=0.0,
            dir_hop_cost=False,
        ),
        workload,
    )
    assert part_obs.tracer.to_jsonl() == oracle_obs.tracer.to_jsonl()

    oracle_metrics = oracle_obs.registry.snapshot()
    part_metrics = part_obs.registry.snapshot()
    extras = {"directory_route_lookups", "directory_stale_served"}
    for name, snap in part_metrics.items():
        base = oracle_metrics[name]
        trimmed = {k: v for k, v in snap.items() if k not in extras}
        base_trimmed = {k: v for k, v in base.items() if k not in extras}
        assert trimmed == base_trimmed, name


def test_default_partitioned_run_differs_and_counts_hops(monkeypatch):
    """With the real knobs on (hop charging, nonzero window) the
    partitioned run must *not* be a silent no-op: remote lookups are
    charged and counted."""
    monkeypatch.delenv("REPRO_DIRECTORY", raising=False)
    from repro.core.config import variant

    from repro.experiments.runner import ExperimentConfig, run_experiment
    from repro.obs import Observability

    workload = _golden_workload()
    cfg = ExperimentConfig(
        system=variant("cc-kmc").with_overrides(directory="partitioned"),
        trace=workload, num_nodes=4, mem_mb_per_node=0.5,
        num_clients=8, seed=0,
    )
    part_obs = Observability(trace=True)
    result = run_experiment(cfg, obs=part_obs)
    oracle_obs = _run(variant("cc-kmc"), workload)
    assert part_obs.tracer.digest() != oracle_obs.tracer.digest()
    assert result.counters["dir_lookups_remote"] > 0


def test_home_node_crash_repairs_ring_and_reregisters(monkeypatch):
    """Fault recovery through the partitioned seam: a home-node crash
    repairs the ring synchronously, forgets the dead home's partition,
    and re-registers surviving masters — and the run still completes
    with the fail-stop degraded-never-hung contract intact."""
    monkeypatch.setenv("REPRO_DIRECTORY", "partitioned")
    from repro.experiments.runner import ExperimentConfig, run_experiment
    from repro.sim.faults import FaultEvent, FaultPlan

    plan = FaultPlan((
        FaultEvent("crash", 50.0, node=1),
        FaultEvent("restart", 400.0, node=1),
    ))
    cfg = ExperimentConfig(
        system="cc-kmc", trace=_golden_workload(), num_nodes=4,
        mem_mb_per_node=0.5, num_clients=8, seed=0, faults=plan,
    )
    result = run_experiment(cfg)
    fc = result.fault_counters
    assert fc["node_crashes"] == 1 and fc["node_restarts"] == 1
    assert "dir_entries_lost" in fc
    assert fc.get("dir_reregistered", 0) <= fc["dir_entries_lost"]
    assert result.workload.throughput_rps > 0

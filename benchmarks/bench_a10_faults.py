"""A10: availability and graceful degradation under injected crashes.

The paper evaluates a perfect cluster; this ablation injects seeded
fail-stop crash/restart schedules (DESIGN.md S14) into all four systems
over the same trace and measures how throughput degrades with crash
rate.  The availability contract is checked alongside the numbers:
every request terminates — served or explicitly "failed" — and failures
stay a small fraction of the measured stream even at three expected
crashes per node.
"""

from repro.experiments.ablations import a10_faults, render_a10


def test_bench_a10(artifact):
    data = a10_faults()
    for sys_data in data["systems"]:
        baseline = sys_data["points"][0]
        assert baseline["crashes_per_node"] == 0.0
        assert baseline["failed_requests"] == 0
        assert baseline["vs_fault_free"] == 1.0
        prev_ratio = None
        for p in sys_data["points"][1:]:
            # Crashes were actually injected and the run completed.
            assert p["node_crashes"] > 0
            # Degraded, not dead: real throughput survives at every rate.
            assert 0.0 < p["vs_fault_free"] <= 1.0
            assert p["throughput_rps"] > 0.2 * baseline["throughput_rps"]
            # Graceful: more crashes never *improves* on fewer (small
            # scheduling noise allowed).
            if prev_ratio is not None:
                assert p["vs_fault_free"] <= prev_ratio * 1.05
            prev_ratio = p["vs_fault_free"]
    artifact("a10_faults", render_a10(data), data)

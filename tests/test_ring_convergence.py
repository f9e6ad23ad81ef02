"""Statistical convergence: partitioned LRU approaches the single LRU.

The result behind Fig R (PAPERS.md: asymptotic miss ratio of LRU
with consistent hashing) — splitting one
LRU into per-node LRUs behind the hash ring costs a vanishing amount of
miss ratio as per-node capacity grows.  The fast test smoke-checks the
model at toy scale; the ``slow``-marked test (nightly, deselected from
tier-1 by the ``-m "not slow"`` addopts) runs the real statistical
check at fig_ring scale.  Everything is seeded: these are deterministic
computations over a pinned Zipf stream, so tolerance failures are code
changes, not sampling noise.
"""

import pytest

from repro.analytic.ring import (
    convergence_point,
    lru_miss_ratio,
    partitioned_miss_ratio,
    zipf_requests,
)


def test_zipf_stream_is_seeded_and_shaped():
    a = zipf_requests(500, 4000, theta=0.8, seed=0)
    b = zipf_requests(500, 4000, theta=0.8, seed=0)
    c = zipf_requests(500, 4000, theta=0.8, seed=1)
    assert (a == b).all()
    assert not (a == c).all()
    assert a.min() >= 0 and a.max() < 500
    # Zipf head-heaviness: the most popular decile draws well over its
    # uniform share.
    head = (a < 50).mean()
    assert head > 0.3


def test_single_lru_miss_ratio_monotone_in_capacity():
    reqs = zipf_requests(800, 6000, seed=0)
    misses = [lru_miss_ratio(reqs, cap) for cap in (8, 32, 128, 512)]
    assert misses == sorted(misses, reverse=True)
    assert 0.0 < misses[-1] < misses[0] <= 1.0


def test_partitioned_never_beats_single_lru_smoke():
    # Inclusion-style sanity at toy scale: the partitioned aggregate can
    # tie but not beat the single LRU of the same total capacity under
    # an i.i.d. stream (imbalance only hurts).
    reqs = zipf_requests(2000, 20_000, seed=0)
    for nodes, cap in ((4, 16), (8, 16), (16, 8)):
        point = convergence_point(reqs, nodes, cap, vnodes=32, seed=0)
        assert point["gap"] >= -1e-12, (nodes, cap, point)


def test_convergence_smoke_tiny():
    # Tiny-knob version of the slow statistical test: gap shrinks from
    # the smallest to the largest per-node capacity.
    reqs = zipf_requests(12_000, 40_000, seed=0)
    small = convergence_point(reqs, 16, 4, vnodes=64, seed=0)
    large = convergence_point(reqs, 16, 64, vnodes=64, seed=0)
    assert large["gap"] < small["gap"]
    assert large["gap"] < 0.01


@pytest.mark.slow
@pytest.mark.parametrize("nodes", [16, 64, 256])
def test_partitioned_miss_ratio_converges_to_single_lru(nodes):
    """fig_ring-scale statistical check, one panel per node count: the
    partitioned aggregate miss ratio lands within a shrinking tolerance
    of the single LRU as per-node capacity grows, and the gap is
    monotone decreasing across the capacity sweep."""
    reqs = zipf_requests(60_000, 150_000, theta=0.8, seed=0)
    gaps = []
    for cap in (4, 16, 64):
        point = convergence_point(reqs, nodes, cap, vnodes=64, seed=0)
        assert point["gap"] >= -1e-12
        gaps.append(point["gap"])
    assert gaps == sorted(gaps, reverse=True), gaps
    # Absolute tolerance at the largest capacity: within half a point of
    # miss ratio of the unpartitioned ideal, at every cluster size.
    assert gaps[-1] < 0.005, gaps
    # And an order-of-magnitude-style relative drop across the sweep.
    assert gaps[-1] < 0.75 * gaps[0], gaps


@pytest.mark.slow
def test_partitioned_miss_ratio_stable_across_ring_seeds():
    """The convergence claim is not an artifact of one lucky ring: at
    fig_ring scale the gap stays small under different placement
    seeds (same request stream)."""
    reqs = zipf_requests(60_000, 150_000, theta=0.8, seed=0)
    for ring_seed in (0, 1, 2):
        part = partitioned_miss_ratio(
            reqs, 64, 64, vnodes=64, seed=ring_seed
        )
        single = lru_miss_ratio(reqs, 64 * 64)
        assert part - single < 0.006, (ring_seed, part, single)

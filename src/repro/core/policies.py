"""Replacement policies: the knob the paper turns.

The paper's three evaluated variants differ in *which resident block a
full cache sacrifices* (and in the disk discipline, which lives in
:class:`~repro.core.config.CoopCacheConfig`):

* **basic** — approximate global LRU: the victim is the locally oldest
  block regardless of master status.  Master victims then get the
  traditional "second chance" (forwarding) in the middleware.
* **kmc** (*keep master copies*) — the paper's contribution: "when
  eviction is necessary, never evict a master copy if the evicting node
  is still holding a non-master copy; instead, evict the oldest
  non-master copy.  If the node is only holding master copies, then
  perform the global LRU eviction as before."

Policies are stateless selectors over a :class:`~repro.cache.BlockCache`;
what happens to the victim (drop vs forward) is protocol, implemented in
:mod:`repro.core.middleware`.
"""

from __future__ import annotations


from ..cache.blockcache import BlockCache
from ..cache.block import BlockId

__all__ = ["Victim", "select_victim", "POLICIES"]

#: (block, age, is_master)
Victim = tuple[BlockId, float, bool]


def _basic(cache: BlockCache) -> Victim | None:
    """Local LRU over all resident blocks."""
    return cache.oldest()


def _kmc(cache: BlockCache) -> Victim | None:
    """Oldest non-master if any non-master exists; else local LRU."""
    nm = cache.oldest_nonmaster()
    if nm is not None:
        return (nm[0], nm[1], False)
    return cache.oldest()


#: Age gap (simulated ms) beyond which the hybrid policy prefers
#: evicting a very cold master over a recently used replica.
HYBRID_BIAS_MS = 1_000.0


def _hybrid(cache: BlockCache) -> Victim | None:
    """KMC with an escape hatch for extremely cold masters.

    The paper notes KMC "is rather extreme; it leads to all memories
    holding only master copies, which does not necessarily lead to best
    performance" and that the policy "can likely be improved".  This
    variant tests one improvement: protect masters as KMC does, *unless*
    the locally oldest master is more than :data:`HYBRID_BIAS_MS` older
    than the oldest replica — such a master is deep in the cold tail and
    keeping a recently touched replica (a likely local hit) is the better
    trade.  Ablation A9 evaluates it.
    """
    nm = cache.oldest_nonmaster()
    overall = cache.oldest()
    if nm is None or overall is None:
        return overall
    blk, age, is_master = overall
    if is_master and age + HYBRID_BIAS_MS < nm[1]:
        return overall  # the master is extremely cold: let it go
    return (nm[0], nm[1], False)


POLICIES = {"basic": _basic, "kmc": _kmc, "hybrid": _hybrid}


def select_victim(policy: str, cache: BlockCache) -> Victim | None:
    """Choose the eviction victim for ``cache`` under ``policy``.

    Returns None for an empty cache.  Raises for unknown policy names so
    configuration typos fail fast.
    """
    try:
        selector = POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {policy!r}; choose from {sorted(POLICIES)}"
        ) from None
    return selector(cache)

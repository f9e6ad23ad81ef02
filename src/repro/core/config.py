"""Configuration for the cooperative caching middleware.

One :class:`CoopCacheConfig` names each of the paper's evaluated systems:

=============  ========  ===============  ==================
variant        policy    disk discipline  forwarding
=============  ========  ===============  ==================
``cc-basic``   basic     fifo             on (second chance)
``cc-sched``   basic     scan             on
``cc-kmc``     kmc       scan             on
=============  ========  ===============  ==================

plus the ablation knobs DESIGN.md lists (A6: forwarding off; A1:
hint-based directory; A3: whole-file granularity).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..cluster.disk import FIFO, SCAN
from .policies import POLICIES

__all__ = ["CoopCacheConfig", "VARIANTS", "variant"]


@dataclass(frozen=True)
class CoopCacheConfig:
    """Behavioural switches of the middleware."""

    #: Replacement policy name (see :mod:`repro.core.policies`).
    policy: str = "kmc"
    #: Disk queue discipline for every node.
    disk_discipline: str = SCAN
    #: Forward evicted masters to the peer with the oldest block (the
    #: traditional "second chance").  Off = drop masters like replicas.
    forward_on_evict: bool = True
    #: Directory type: "perfect" (the paper's optimistic assumption) or
    #: "hints" (Sarkar & Hartman-style, see :mod:`repro.core.hints`).
    directory: str = "perfect"
    #: Probability a hint lookup points at the true master location
    #: (Sarkar & Hartman report ~98% achievable).  Only with "hints".
    hint_accuracy: float = 0.98
    #: Write handling (paper Section 6 future work): "write-back" keeps
    #: dirty masters in memory and flushes them on eviction;
    #: "write-through" flushes every write to the home disk immediately.
    write_policy: str = "write-back"

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; choose from {sorted(POLICIES)}"
            )
        if self.disk_discipline not in (FIFO, SCAN):
            raise ValueError(f"unknown disk discipline {self.disk_discipline!r}")
        if self.directory not in ("perfect", "hints"):
            raise ValueError(f"unknown directory type {self.directory!r}")
        if not 0.0 <= self.hint_accuracy <= 1.0:
            raise ValueError("hint_accuracy must be in [0, 1]")
        if self.write_policy not in ("write-back", "write-through"):
            raise ValueError(f"unknown write policy {self.write_policy!r}")

    def with_overrides(self, **kwargs: object) -> "CoopCacheConfig":
        """Copy with fields replaced (for ablation sweeps)."""
        return replace(self, **kwargs)


#: The paper's three curves, by the names DESIGN.md assigns them.
VARIANTS = {
    "cc-basic": CoopCacheConfig(policy="basic", disk_discipline=FIFO),
    "cc-sched": CoopCacheConfig(policy="basic", disk_discipline=SCAN),
    "cc-kmc": CoopCacheConfig(policy="kmc", disk_discipline=SCAN),
}


def variant(name: str) -> CoopCacheConfig:
    """Look up one of the paper's named variants."""
    try:
        return VARIANTS[name]
    except KeyError:
        raise ValueError(
            f"unknown variant {name!r}; choose from {sorted(VARIANTS)}"
        ) from None

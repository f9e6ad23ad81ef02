"""Simulation modeling constants (paper Table 1) and hardware configurations.

The paper's Table 1 lists the service demands used by its event-driven
simulator.  The published PDF extraction corrupted several cells, so the
values here are reconstructed from the hardware the paper names:

* **CPU**: 800 MHz Pentium III, 133 MHz memory bus.  URL parsing and
  per-block bookkeeping costs are the paper's own (they survive in the
  text); the reply-serving cost ``0.1 + size/115`` ms (size in KB) models a
  memory-bandwidth-bound copy at ~115 MB/s of effective payload bandwidth.
* **Disk**: IBM Deskstar 75GXP — ~8.5 ms average seek + rotational latency,
  ~37 MB/s media rate.  The paper charges *one extra seek for metadata on
  every 64 KB access* and assumes files are contiguous within 64 KB extents
  (its pre-allocation assumption); both appear below.
* **Network**: VIA-style Gb/s LAN — 0.038 ms one-way latency ("one round
  trip of 80-100 us" in the paper's prose) and 125 KB/ms of bandwidth.
* **Router**: Cisco 7600 class — a fixed per-request forwarding cost.

All times are in **milliseconds**; all sizes are in **KB** unless a name
says otherwise.  Every simulation object takes a :class:`SimParams`, so
experiments can sweep any constant (ablation A5 sweeps the LAN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

#: Cache block size used by the block-based middleware (KB).
BLOCK_KB = 8

#: File-system extent size within which files are contiguous (KB).
EXTENT_KB = 64

#: Blocks per extent.
BLOCKS_PER_EXTENT = EXTENT_KB // BLOCK_KB


@dataclass(frozen=True)
class CPUParams:
    """Service demands charged to a node's CPU (ms)."""

    #: Parse an incoming URL request (Table 1: "Parsing time").
    parse_ms: float = 0.1
    #: Fixed part of serving a reply from local memory.
    serve_fixed_ms: float = 0.1
    #: Payload-dependent part of serving: ms per KB (~115 MB/s copy rate).
    serve_per_kb_ms: float = 1.0 / 115.0
    #: Fixed part of "Process a file request" (block bookkeeping setup).
    file_request_fixed_ms: float = 0.03
    #: Per-block part of "Process a file request".
    file_request_per_block_ms: float = 0.01
    #: "Serve peer block request": CPU time at the peer per block served.
    serve_peer_block_ms: float = 0.07
    #: "Cache a new block": CPU time to insert one block locally.
    cache_block_ms: float = 0.01
    #: "Process an evicted master block": CPU time to absorb a forwarded
    #: master copy at its destination.
    evicted_master_ms: float = 0.016
    #: Cost to forward a request to another node (PRESS forwarding path).
    forward_request_ms: float = 0.05
    #: Process a replica-invalidation message for one block (the write
    #: protocol extension; paper Section 6 future work).
    invalidate_block_ms: float = 0.005
    #: Apply a block write to a resident master copy.
    write_block_ms: float = 0.012

    def serve_ms(self, size_kb: float) -> float:
        """Time to send ``size_kb`` of locally cached content to a client."""
        return self.serve_fixed_ms + size_kb * self.serve_per_kb_ms

    def file_request_ms(self, nblocks: int) -> float:
        """Time to process a file request spanning ``nblocks`` blocks."""
        return self.file_request_fixed_ms + nblocks * self.file_request_per_block_ms


@dataclass(frozen=True)
class DiskParams:
    """IBM Deskstar 75GXP-class disk model (ms / KB)."""

    #: Average seek + rotational latency for a non-contiguous access.
    seek_ms: float = 8.5
    #: Extra seek charged for metadata on every 64 KB extent access.
    metadata_seek_ms: float = 8.5
    #: Media transfer rate, ms per KB (~37 MB/s).
    transfer_per_kb_ms: float = 1.0 / 37.0

    def read_ms(self, size_kb: float, *, contiguous: bool) -> float:
        """Time to read ``size_kb`` from one extent.

        ``contiguous`` means the head is already positioned (the previous
        request ended immediately before this one), so neither the data
        seek nor the metadata seek is charged — the paper's "2 seeks vs 12
        seeks" interleaving arithmetic falls out of this.
        """
        transfer = size_kb * self.transfer_per_kb_ms
        if contiguous:
            return transfer
        return self.seek_ms + self.metadata_seek_ms + transfer


@dataclass(frozen=True)
class NetworkParams:
    """Gb/s system-area LAN (VIA-class)."""

    #: One-way wire latency (ms).
    latency_ms: float = 0.038
    #: Link bandwidth in KB per ms (125 KB/ms == 1 Gb/s).
    bandwidth_kb_per_ms: float = 125.0
    #: Fixed per-message NIC occupancy (descriptor handling).
    per_message_ms: float = 0.005

    def transfer_ms(self, size_kb: float) -> float:
        """NIC occupancy to push ``size_kb`` onto the wire."""
        return self.per_message_ms + size_kb / self.bandwidth_kb_per_ms


@dataclass(frozen=True)
class BusParams:
    """Node-internal bus joining CPU, NIC and disk (133 MHz, 64-bit)."""

    #: Fixed per-transfer arbitration cost (ms).
    per_transfer_ms: float = 0.001
    #: Bandwidth in KB per ms (~1 GB/s).
    bandwidth_kb_per_ms: float = 1064.0

    def transfer_ms(self, size_kb: float) -> float:
        """Bus occupancy for moving ``size_kb`` between components."""
        return self.per_transfer_ms + size_kb / self.bandwidth_kb_per_ms


@dataclass(frozen=True)
class RouterParams:
    """Front-end router (Cisco 7600 class)."""

    #: Per-request forwarding cost (ms).  The 7600's spec sheet forwarding
    #: rate is far above our request rates; this keeps it off the critical
    #: path, as in the paper.
    forward_ms: float = 0.002


@dataclass(frozen=True)
class FaultParams:
    """Failure-detection and retry constants (fault-injection extension).

    The paper does not model failures, so none of these come from Table 1;
    the provenance of each choice is documented in DESIGN.md S14.  In
    brief: detection is a few RTTs of a VIA-class LAN plus keepalive
    processing (TCP-keepalive-style detection scaled to SAN latencies);
    three retries is the classic NFS/RPC soft-mount default; the backoff
    cap is chosen to stay well under typical restart times so retries
    resolve by failover, not by waiting out the outage.
    """

    #: Time for a requester to decide a peer/home is dead (ms).  ~130x the
    #: 0.038 ms one-way wire latency: a keepalive probe plus grace period.
    detect_timeout_ms: float = 5.0
    #: Bounded retries before a request fails explicitly (RPC-style).
    max_retries: int = 3
    #: First retry backoff (ms); doubles per attempt.
    backoff_base_ms: float = 1.0
    #: Hard ceiling on any single backoff wait (ms) — the `_retry_after`
    #: starvation fix: no retry can wait longer than this.
    backoff_cap_ms: float = 50.0
    #: Multiplicative jitter range: each wait is scaled by a factor in
    #: [1, 1 + backoff_jitter), decorrelating simultaneous retriers.
    backoff_jitter: float = 0.5


@dataclass(frozen=True)
class SimParams:
    """Complete parameter set for one simulation (paper Table 1).

    Instances are immutable; derive variants with :meth:`with_overrides`
    (used by the hardware-sensitivity ablations).
    """

    cpu: CPUParams = field(default_factory=CPUParams)
    disk: DiskParams = field(default_factory=DiskParams)
    network: NetworkParams = field(default_factory=NetworkParams)
    bus: BusParams = field(default_factory=BusParams)
    router: RouterParams = field(default_factory=RouterParams)
    #: Cache block size (KB).
    block_kb: int = BLOCK_KB
    #: File-system extent size (KB).
    extent_kb: int = EXTENT_KB
    #: Finite queue bound for every service center (jobs).  The paper
    #: models "service centers with finite queues"; the default is large
    #: enough that drops signal a configuration error rather than policy.
    queue_limit: int = 100_000
    #: Failure detection / retry constants (only consulted when a
    #: :class:`~repro.sim.faults.FaultInjector` is active).
    faults: FaultParams = field(default_factory=FaultParams)

    def blocks_of(self, size_kb: float) -> int:
        """Number of cache blocks needed for a file of ``size_kb``."""
        return max(1, math.ceil(size_kb / self.block_kb))

    def extents_of(self, size_kb: float) -> int:
        """Number of file-system extents a file of ``size_kb`` spans."""
        return max(1, math.ceil(size_kb / self.extent_kb))

    def with_overrides(self, **kwargs) -> "SimParams":
        """Return a copy with top-level fields replaced.

        Nested dataclasses can be replaced wholesale, e.g.::

            params.with_overrides(network=NetworkParams(bandwidth_kb_per_ms=12.5))
        """
        return replace(self, **kwargs)


#: The default parameter set: the paper's testbed.
DEFAULT_PARAMS = SimParams()


def lan_params(mbits_per_s: float) -> NetworkParams:
    """Network parameters for a LAN of the given speed (ablation A5).

    Latency scales weakly with bandwidth class: 100 Mb/s Ethernet-era
    latency ~0.1 ms, Gb/s ~0.038 ms, 10 Gb/s ~0.01 ms.
    """
    kb_per_ms = mbits_per_s / 8.0 / 1000.0 * 1000.0  # Mb/s -> KB/ms
    if mbits_per_s <= 100:
        latency = 0.1
    elif mbits_per_s <= 1000:
        latency = 0.038
    else:
        latency = 0.01
    return NetworkParams(latency_ms=latency, bandwidth_kb_per_ms=kb_per_ms)


#: Named hardware configurations for the sensitivity study.
HARDWARE_CONFIGS: dict[str, SimParams] = {
    "paper": DEFAULT_PARAMS,
    "lan-100mb": DEFAULT_PARAMS.with_overrides(network=lan_params(100)),
    "lan-1gb": DEFAULT_PARAMS.with_overrides(network=lan_params(1000)),
    "lan-10gb": DEFAULT_PARAMS.with_overrides(network=lan_params(10000)),
}

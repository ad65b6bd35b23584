"""Per-packet CPU cost parameters, calibrated to the paper's Table 4.

Appendix A decomposes the per-packet CPU time of each program into:

* ``d``  — dispatch: driver/framework labor to present the packet to the
  program and signal transmission (the dominant cost, §3.1);
* ``c1`` — program compute over the current packet;
* ``c2`` — state transition over one piggybacked history item (a subset of
  ``c1``, so ``c2 < c1``);
* ``t = d + c1`` — the full single-packet service time.

All values are nanoseconds measured by the authors on a 3.6 GHz Ice Lake
core (Table 4); we reuse their measurements directly, which Appendix A shows
predict the measured throughput well (Figure 11).  The throughput formulas
over these rows live in :mod:`repro.bench.model`.

The contention constants model the hardware effects the paper attributes the
baselines' failures to: cross-core cache-line transfers (~an LLC round trip),
spinlock handoff degradation with more contenders, and L2 capacity spill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = [
    "CostParams",
    "TABLE4_PARAMS",
    "ContentionParams",
    "DEFAULT_CONTENTION",
    "CPU_FREQ_GHZ",
    "L2_BYTES",
    "STATE_ENTRY_BYTES",
]

#: The DUT runs at a fixed 3.6 GHz (§4.1).
CPU_FREQ_GHZ = 3.6

#: Ice Lake SP (Xeon Gold 6334) private L2 per core.
L2_BYTES = 1_280_000

#: Memory footprint charged per tracked flow: one cache line for the entry
#: plus amortized table overhead.
STATE_ENTRY_BYTES = 96


@dataclass(frozen=True)
class CostParams:
    """Table 4 row: all values in nanoseconds at 3.6 GHz."""

    t: float  # d + c1, full single-packet service time
    c2: float  # per-history-item state transition
    d: float  # dispatch
    c1: float  # compute over the current packet


#: Measured parameters from Table 4 (nanoseconds).  The forwarder row is
#: derived from Figure 2: ~14 Mpps single-core (t ≈ 71 ns) with a measured
#: XDP latency of ~14 ns (c1), leaving d ≈ 57 ns; it is stateless so c2 = 0.
TABLE4_PARAMS: Dict[str, CostParams] = {
    "ddos": CostParams(t=114.0, c2=15.0, d=104.0, c1=10.0),
    "heavy_hitter": CostParams(t=145.0, c2=15.0, d=110.0, c1=35.0),
    "token_bucket": CostParams(t=156.0, c2=21.0, d=104.0, c1=53.0),
    "port_knocking": CostParams(t=107.0, c2=18.0, d=97.0, c1=11.0),
    "conntrack": CostParams(t=152.0, c2=35.0, d=80.0, c1=73.0),
    "forwarder": CostParams(t=71.0, c2=0.0, d=57.0, c1=14.0),
    # Extension program (not in the paper's Table 4): our estimate, sized
    # like the token bucket plus a second map update for the port pool.
    "nat": CostParams(t=168.0, c2=26.0, d=104.0, c1=64.0),
    "sampler": CostParams(t=150.0, c2=18.0, d=110.0, c1=40.0),
    "load_balancer": CostParams(t=160.0, c2=24.0, d=104.0, c1=56.0),
    # Commutative-family extensions: the victim monitor mirrors the ddos
    # counter exactly; the peak meter is a lone compare-and-swap max (a
    # shade under heavy_hitter's two adds); the spreader is a shift+OR on
    # a 9-byte metadata record.
    "victim_monitor": CostParams(t=114.0, c2=15.0, d=104.0, c1=10.0),
    "peak_meter": CostParams(t=138.0, c2=14.0, d=110.0, c1=28.0),
    "spreader": CostParams(t=118.0, c2=12.0, d=104.0, c1=14.0),
}


@dataclass(frozen=True)
class ContentionParams:
    """Constants for the shared-state contention and memory models."""

    #: Cross-core dirty cache-line transfer (LLC round trip), ns.
    line_transfer_ns: float = 70.0
    #: Uncontended atomic read-modify-write beyond plain compute, ns.
    atomic_ns: float = 10.0
    #: Uncontended spinlock acquire + release, ns.
    lock_ns: float = 20.0
    #: Extra lock-handoff cost per additional contending core: spinning
    #: readers keep stealing the lock line, so handing off under k-way
    #: contention costs ~``lock_handoff_factor * (k-1)`` extra transfers.
    lock_handoff_factor: float = 0.35
    #: Extra per-access latency once a core's state spills out of L2, ns.
    l2_spill_ns: float = 18.0
    #: Per-log-entry write cost for SCR's loss-recovery logging (§4.2), ns.
    log_write_ns: float = 9.0
    #: Spin-probe cost of reading another core's log during recovery, ns.
    recovery_probe_ns: float = 70.0
    #: Fetching an epoch checkpoint from the sequencer during a quarantine
    #: resync: a DMA round trip for a snapshot region, amortized per
    #: resync.  Dominated by the host-interconnect latency, not size.
    checkpoint_fetch_ns: float = 1_800.0

    def lock_hold_ns(self, c1: float, contenders: int) -> float:
        """Time the lock is held per update under ``contenders``-way contention.

        The critical section covers the state update (``c1``) plus, when
        other cores contend, the lock-word and state-line transfers — which
        grow with the number of spinning cores fighting for the line.  A
        single core pays only the lock instructions.
        """
        if contenders < 1:
            raise ValueError("contenders must be >= 1")
        if contenders == 1:
            return self.lock_ns + c1
        handoff = self.line_transfer_ns * (1 + self.lock_handoff_factor * (contenders - 2))
        return self.lock_ns + c1 + handoff

    def atomic_hold_ns(self) -> float:
        """Exclusive-ownership time per contended atomic RMW."""
        return self.line_transfer_ns


DEFAULT_CONTENTION = ContentionParams()

"""Simulated performance counters (the PCM / BPF-profiling stand-in, Fig. 8).

The event simulator attributes every nanosecond of core time to one of:
useful program work, dispatch, lock/atomic waiting, or cache-line transfer
stalls.  From those the counters derive the three metrics Figure 8 plots:

* **compute latency** — the XDP-program portion only (excludes dispatch),
* **L2 hit ratio** — per-state-access hits vs misses (bounces + spills),
* **IPC** — retired instructions over busy cycles; stall cycles retire
  nothing, so waiting and bouncing depress IPC exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .costmodel import CPU_FREQ_GHZ

__all__ = [
    "CoreCounters",
    "SystemCounters",
    "INSNS_PER_DISPATCH",
    "INSNS_PER_COMPUTE_NS",
    "POLL_IPC",
]

#: Retired-instruction estimates: dispatch code is a long straight path,
#: program compute retires ~3 instructions per ns at 3.6 GHz when unstalled.
INSNS_PER_DISPATCH = 250
INSNS_PER_COMPUTE_NS = 3.0

#: XDP drivers busy-poll their RX rings; an "idle" core spins on an empty
#: ring retiring a trickle of instructions.  This is why PCM reports low
#: IPC on under-loaded cores (Fig. 8's sharding error bars).
POLL_IPC = 0.3


@dataclass
class CoreCounters:
    """Everything one simulated core accumulates during a run."""

    core_id: int = 0
    packets: int = 0
    #: time spent in the XDP program portion (compute + history), ns.
    compute_ns: float = 0.0
    #: the subset of ``compute_ns`` spent fast-forwarding piggybacked
    #: history items (the Appendix A ``(k-1)·c2`` term); the remainder of
    #: ``compute_ns`` is current-packet work (``c1`` plus memory effects).
    history_ns: float = 0.0
    #: time spent in dispatch, ns.
    dispatch_ns: float = 0.0
    #: time stalled waiting on locks/atomics, ns.
    wait_ns: float = 0.0
    #: time stalled on cross-core cache-line transfers, ns.
    transfer_ns: float = 0.0
    #: state-map accesses and the subset that missed L2 (fractional misses
    #: come from the probabilistic capacity-spill model).
    l2_accesses: int = 0
    l2_misses: float = 0.0
    #: retired instructions (estimated).
    instructions: float = 0.0
    #: time attributed to the XDP program itself (compute + in-program
    #: stalls like lock spinning) — what BPF profiling measures (Fig. 8).
    program_ns: float = 0.0

    @property
    def busy_ns(self) -> float:
        return self.compute_ns + self.dispatch_ns + self.wait_ns + self.transfer_ns

    @property
    def l2_hit_ratio(self) -> float:
        if self.l2_accesses == 0:
            return 1.0
        return 1.0 - self.l2_misses / self.l2_accesses

    @property
    def ipc(self) -> float:
        cycles = self.busy_ns * CPU_FREQ_GHZ
        if cycles <= 0:
            return 0.0
        return self.instructions / cycles

    def ipc_wall(self, duration_ns: float) -> float:
        """IPC over wall-clock time, the way PCM sees a busy-polling core.

        Idle time still retires :data:`POLL_IPC` instructions per cycle from
        ring polling, so an under-loaded core shows low (not zero) IPC.
        """
        if duration_ns <= 0:
            return 0.0
        total_cycles = duration_ns * CPU_FREQ_GHZ
        idle_ns = max(0.0, duration_ns - self.busy_ns)
        retired = self.instructions + idle_ns * CPU_FREQ_GHZ * POLL_IPC
        return retired / total_cycles

    @property
    def mean_compute_latency_ns(self) -> float:
        """Average per-packet XDP-program latency (the Fig. 8 latency rows)."""
        if self.packets == 0:
            return 0.0
        return self.program_ns / self.packets

    def charge_packet(
        self,
        dispatch_ns: float,
        compute_ns: float,
        wait_ns: float = 0.0,
        transfer_ns: float = 0.0,
        state_accesses: int = 1,
        l2_misses: float = 0.0,
        program_ns: Optional[float] = None,
        history_ns: float = 0.0,
    ) -> None:
        """Attribute one processed packet's time to the counter buckets.

        ``program_ns`` is the packet's XDP-program latency as profiling
        would see it; by default compute plus in-program stalls.
        ``history_ns`` carves out the fast-forward portion of
        ``compute_ns`` (it must not exceed it) so the attribution can split
        ``c1`` from ``(k-1)·c2`` after the fact.
        """
        if history_ns > compute_ns:
            raise ValueError("history_ns is a subset of compute_ns")
        self.packets += 1
        self.dispatch_ns += dispatch_ns
        self.compute_ns += compute_ns
        self.history_ns += history_ns
        self.wait_ns += wait_ns
        self.transfer_ns += transfer_ns
        self.l2_accesses += state_accesses
        self.l2_misses += l2_misses
        if program_ns is None:
            program_ns = compute_ns + wait_ns + transfer_ns
        self.program_ns += program_ns
        self.instructions += INSNS_PER_DISPATCH + compute_ns * INSNS_PER_COMPUTE_NS

    def charge_batch(
        self,
        dispatch_ns: "np.ndarray",
        compute_ns: "np.ndarray",
        wait_ns: Optional["np.ndarray"] = None,
        transfer_ns: Optional["np.ndarray"] = None,
        state_accesses: Optional["np.ndarray"] = None,
        l2_misses: Optional["np.ndarray"] = None,
        program_ns: Optional["np.ndarray"] = None,
        history_ns: Optional["np.ndarray"] = None,
    ) -> None:
        """Attribute a whole burst of packets at once (columnar hot path).

        Per-row semantics match :meth:`charge_packet` exactly; array
        arguments are per-packet columns in service order, omitted ones
        default like the scalar call.  Floats fold sequentially
        (``np.add.accumulate`` is left-to-right, never pairwise), so the
        totals are bit-identical to charging each packet in a loop —
        provided the counter starts from zero, which it does: the hot path
        commits exactly once per freshly-reset run.

        ``wait_ns``, ``transfer_ns``, ``state_accesses`` and
        ``l2_misses`` may hold more entries than there are packets: an
        access charged after a packet's own (a shared engine's update of
        the global entry, an rss++ migration's miss) is one more addend
        right after the packet's, folded in that order.
        """
        count = len(dispatch_ns)
        if count == 0:
            return
        zeros = np.zeros(count, dtype=np.float64)
        wait_ns = zeros if wait_ns is None else wait_ns
        transfer_ns = zeros if transfer_ns is None else transfer_ns
        l2_misses = zeros if l2_misses is None else l2_misses
        history_ns = zeros if history_ns is None else history_ns
        if program_ns is None:
            program_ns = compute_ns + wait_ns + transfer_ns
        if bool(np.any(history_ns > compute_ns)):
            raise ValueError("history_ns is a subset of compute_ns")

        def fold(column: "np.ndarray") -> float:
            return float(np.add.accumulate(column)[-1])

        self.packets += count
        self.dispatch_ns += fold(dispatch_ns)
        self.compute_ns += fold(compute_ns)
        self.history_ns += fold(history_ns)
        self.wait_ns += fold(wait_ns)
        self.transfer_ns += fold(transfer_ns)
        if state_accesses is None:
            self.l2_accesses += count
        else:
            self.l2_accesses += int(np.sum(state_accesses))
        self.l2_misses += fold(l2_misses)
        self.program_ns += fold(program_ns)
        self.instructions += fold(
            INSNS_PER_DISPATCH + compute_ns * INSNS_PER_COMPUTE_NS)

    def snapshot(self) -> dict:
        """This core's accumulators plus derived metrics, JSON-safe.

        The schema is what the telemetry exporters embed in run artifacts:
        the four attribution buckets always sum to ``busy_ns``.
        """
        return {
            "core_id": self.core_id,
            "packets": self.packets,
            "dispatch_ns": self.dispatch_ns,
            "compute_ns": self.compute_ns,
            "history_ns": self.history_ns,
            "wait_ns": self.wait_ns,
            "transfer_ns": self.transfer_ns,
            "busy_ns": self.busy_ns,
            "program_ns": self.program_ns,
            "l2_accesses": self.l2_accesses,
            "l2_misses": self.l2_misses,
            "l2_hit_ratio": self.l2_hit_ratio,
            "instructions": self.instructions,
            "ipc": self.ipc,
            "mean_compute_latency_ns": self.mean_compute_latency_ns,
        }


@dataclass
class SystemCounters:
    """Aggregate view across cores (means + min/max for Fig. 8 error bars)."""

    cores: List[CoreCounters] = field(default_factory=list)

    def mean_l2_hit_ratio(self) -> float:
        active = [c for c in self.cores if c.l2_accesses]
        if not active:
            return 1.0
        return sum(c.l2_hit_ratio for c in active) / len(active)

    def mean_ipc(self) -> float:
        active = [c for c in self.cores if c.busy_ns > 0]
        if not active:
            return 0.0
        return sum(c.ipc for c in active) / len(active)

    def mean_ipc_wall(self, duration_ns: float) -> float:
        if not self.cores:
            return 0.0
        return sum(c.ipc_wall(duration_ns) for c in self.cores) / len(self.cores)

    def ipc_wall_min_max(self, duration_ns: float) -> tuple:
        if not self.cores:
            return (0.0, 0.0)
        values = [c.ipc_wall(duration_ns) for c in self.cores]
        return (min(values), max(values))

    def mean_compute_latency_ns(self) -> float:
        active = [c for c in self.cores if c.packets]
        if not active:
            return 0.0
        return sum(c.mean_compute_latency_ns for c in active) / len(active)

    def total_packets(self) -> int:
        return sum(c.packets for c in self.cores)

    def snapshot(self) -> dict:
        """Aggregate + per-core dicts in the run-artifact metrics schema.

        Existing aggregate properties (``mean_ipc`` etc.) stay thin views
        over the per-core accumulators; this is the one serialization
        point the exporters use.
        """
        cores = [c.snapshot() for c in self.cores]
        return {
            "cores": cores,
            "totals": {
                "packets": self.total_packets(),
                "busy_ns": sum(c["busy_ns"] for c in cores),
                "dispatch_ns": sum(c["dispatch_ns"] for c in cores),
                "compute_ns": sum(c["compute_ns"] for c in cores),
                "history_ns": sum(c["history_ns"] for c in cores),
                "wait_ns": sum(c["wait_ns"] for c in cores),
                "transfer_ns": sum(c["transfer_ns"] for c in cores),
                "mean_l2_hit_ratio": self.mean_l2_hit_ratio(),
                "mean_ipc": self.mean_ipc(),
                "mean_compute_latency_ns": self.mean_compute_latency_ns(),
            },
        }

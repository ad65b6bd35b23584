"""NIC model: steering, descriptor rings, and line-rate byte accounting.

The testbed NIC is a 100 Gbit/s ConnectX-5 (§4.1).  The model captures the
three NIC behaviours the evaluation depends on:

* **Steering** — which RX queue (core) each arriving packet goes to:
  Toeplitz RSS over configurable fields, symmetric RSS [70], round-robin
  spraying [7] (what SCR and the shared-state baseline use), or explicit
  flow-director rules.
* **Bounded RX rings** — 256 descriptors per queue; drops when a core lags.
* **Line rate** — packets also consume NIC/PCIe bytes.  SCR's piggybacked
  history enlarges packets, so at high core counts the wire, not the CPU,
  becomes the bottleneck (Figure 10a).  ``max_pps_for_wire_size`` gives the
  ceiling including the 20-byte preamble+IFG and 4-byte FCS per frame.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, List, Optional

from ..packet import Packet
from ..packet.flow import FiveTuple
from ..telemetry.events import (
    EV_FAULT_DROP,
    EV_RING_DROP,
    EV_WIRE_DROP,
    NULL_TRACER,
    EventTracer,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..faults.inject import SimFaults
from .queues import DEFAULT_DESCRIPTORS, RxQueue
from .rss import (
    SYMMETRIC_RSS_KEY,
    RssIndirection,
    hash_input_l2,
    hash_input_l3,
    hash_input_l4,
    toeplitz_hash,
)

__all__ = [
    "SteeringMode",
    "Nic",
    "ETHERNET_OVERHEAD_BYTES",
    "MIN_FRAME_BYTES",
    "WIRE_SLACK_FRAMES",
    "PCIE_DESCRIPTOR_BYTES",
]

#: Preamble (7) + SFD (1) + inter-frame gap (12) + FCS (4) per frame.
ETHERNET_OVERHEAD_BYTES = 24
#: Minimum Ethernet frame size excluding FCS.
MIN_FRAME_BYTES = 60
#: Frames of backlog the MAC (and the PCIe DMA engine) absorbs before
#: dropping on a saturated link, in units of the stream's first frame.
WIRE_SLACK_FRAMES = 64
#: Per-packet descriptor + completion bytes across the host interconnect.
PCIE_DESCRIPTOR_BYTES = 16


class SteeringMode(enum.Enum):
    """How the NIC picks an RX queue for an arriving packet."""

    RSS_L3 = "rss-l3"  # hash src & dst IP
    RSS_L4 = "rss-l4"  # hash the 4-tuple
    RSS_SYMMETRIC = "rss-symmetric"  # 4-tuple with the symmetric key [70]
    RSS_L2 = "rss-l2"  # hash the (dummy) Ethernet header (§3.3.1)
    ROUND_ROBIN = "round-robin"  # spray evenly [7]
    FLOW_DIRECTOR = "flow-director"  # explicit rules, RSS_L4 fallback


class Nic:
    """A multi-queue NIC with configurable steering and line-rate limits."""

    def __init__(
        self,
        num_queues: int,
        mode: SteeringMode = SteeringMode.RSS_L4,
        line_rate_gbps: float = 100.0,
        descriptors: int = DEFAULT_DESCRIPTORS,
        indirection_size: int = 128,
        tracer: EventTracer = NULL_TRACER,
        faults: Optional["SimFaults"] = None,
    ) -> None:
        if num_queues < 1:
            raise ValueError("need at least one queue")
        if line_rate_gbps <= 0:
            raise ValueError("line rate must be positive")
        self.num_queues = num_queues
        self.mode = mode
        self.line_rate_bps = line_rate_gbps * 1e9
        self.queues: List[RxQueue[Packet]] = [
            RxQueue(descriptors) for _ in range(num_queues)
        ]
        self.indirection = RssIndirection(num_queues, table_size=indirection_size)
        self._rr_next = 0
        self._director_rules: Dict[FiveTuple, int] = {}
        #: time (ns) at which the wire is next free; enforces line rate.
        self._wire_free_ns = 0.0
        self.wire_dropped = 0
        self.delivered = 0
        #: telemetry event sink; the default disabled tracer is free.
        self.tracer = tracer
        #: optional fault injector (repro.faults); None = fault-free.
        self.faults = faults
        self.fault_dropped = 0
        #: arrival ordinal, the key the fault plan's decisions hash on.
        self._arrival_index = 0

    # -- steering ------------------------------------------------------------

    def steer(self, pkt: Packet) -> int:
        """Return the RX queue index for ``pkt`` under the configured mode."""
        if self.mode is SteeringMode.ROUND_ROBIN:
            q = self._rr_next
            self._rr_next = (self._rr_next + 1) % self.num_queues
            return q
        if self.mode is SteeringMode.RSS_L2:
            return self.indirection.queue_of(toeplitz_hash(hash_input_l2(pkt)))
        ft = pkt.five_tuple()
        if self.mode is SteeringMode.FLOW_DIRECTOR:
            rule = self._director_rules.get(ft)
            if rule is not None:
                return rule
            return self.indirection.queue_of(toeplitz_hash(hash_input_l4(ft)))
        if self.mode is SteeringMode.RSS_L3:
            return self.indirection.queue_of(toeplitz_hash(hash_input_l3(ft)))
        if self.mode is SteeringMode.RSS_SYMMETRIC:
            h = toeplitz_hash(hash_input_l4(ft), key=SYMMETRIC_RSS_KEY)
            return self.indirection.queue_of(h)
        # RSS_L4 default.
        return self.indirection.queue_of(toeplitz_hash(hash_input_l4(ft)))

    def add_director_rule(self, ft: FiveTuple, queue: int) -> None:
        if not 0 <= queue < self.num_queues:
            raise IndexError(f"queue {queue} out of range")
        self._director_rules[ft] = queue

    # -- line rate -----------------------------------------------------------

    def wire_time_ns(self, wire_len: int) -> float:
        """Nanoseconds a frame of ``wire_len`` bytes occupies the wire."""
        frame = max(MIN_FRAME_BYTES, wire_len) + ETHERNET_OVERHEAD_BYTES
        return frame * 8 / self.line_rate_bps * 1e9

    def max_pps_for_wire_size(self, wire_len: int) -> float:
        """The line-rate pps ceiling for frames of ``wire_len`` bytes."""
        return 1e9 / self.wire_time_ns(wire_len)

    # -- receive path ----------------------------------------------------------

    @property
    def wire_busy_until_ns(self) -> float:
        """When the wire finishes clocking in every admitted frame so far.

        Every *admitted* frame advances this — including frames later
        dropped at a full RX ring or by an injected fault.  The wire
        serialized their full (SCR-enlarged) byte count either way, which
        is exactly why history bytes cap scaling in Figure 10a: a ring
        drop refunds no wire time.
        """
        return self._wire_free_ns

    def receive(self, pkt: Packet) -> Optional[int]:
        """Accept ``pkt`` from the wire, steer it, enqueue on its RX ring.

        Returns the queue index on success, or None when the packet was
        dropped (wire saturated, injected fault, or ring full).  The wire
        model serializes frames: a packet arriving while the previous
        frame is still being clocked in is delayed, and dropped once
        delay exceeds arrival time (the NIC has no infinite buffer before
        the MAC).

        Byte accounting is deliberately asymmetric: a MAC-FIFO (wire)
        drop charges nothing — the frame never finished arriving — while
        fault and ring drops happen *after* admission, so their full
        wire bytes (piggybacked history included) stay charged.
        """
        arrival = pkt.timestamp_ns
        index = self._arrival_index
        self._arrival_index += 1
        if arrival < self._wire_free_ns - self.wire_time_ns(pkt.wire_len) * 64:
            # More than ~64 frames of backlog on the wire: the offered rate
            # exceeds line rate and the MAC FIFO overflows.
            self.wire_dropped += 1
            if self.tracer.enabled:
                self.tracer.emit(EV_WIRE_DROP, ts_ns=float(arrival),
                                 backlog_ns=self._wire_free_ns - arrival)
            return None
        self._wire_free_ns = max(self._wire_free_ns, float(arrival)) + self.wire_time_ns(
            pkt.wire_len
        )
        queue_index = self.steer(pkt)
        if self.faults is not None and self.faults.drop(index):
            # Lost between MAC and ring; the wire time above stays charged.
            self.fault_dropped += 1
            if self.tracer.enabled:
                self.tracer.emit(EV_FAULT_DROP, ts_ns=float(arrival),
                                 core=queue_index, index=index)
            return None
        if self.queues[queue_index].enqueue(pkt):
            self.delivered += 1
            return queue_index
        if self.tracer.enabled:
            self.tracer.emit(EV_RING_DROP, ts_ns=float(arrival),
                             core=queue_index,
                             depth=len(self.queues[queue_index]))
        return None

    def reset_counters(self) -> None:
        self.wire_dropped = 0
        self.delivered = 0
        self.fault_dropped = 0
        self._arrival_index = 0
        self._wire_free_ns = 0.0
        for q in self.queues:
            q.enqueued = 0
            q.dropped = 0
            q.clear()

    @property
    def ring_dropped(self) -> int:
        return sum(q.dropped for q in self.queues)

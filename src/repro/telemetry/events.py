"""Structured event tracing: a bounded ring of typed, timestamped events.

This is the per-packet-record instrument the related reordering/contention
studies rely on: each layer emits small typed events (a NIC ring drop, an
SCR spray decision, a recovery round) into one ring buffer.  Memory is
bounded — the ring keeps the most recent ``capacity`` events — but the
per-type counts cover the *whole* run, so "top drop causes" summaries do
not depend on ring retention.

Timestamps are simulated nanoseconds where the emitting layer has them
(the performance simulator, the NIC model); layers with no clock of their
own (the functional engine walks packets, not time) omit them and the
tracer stamps a monotonically increasing virtual tick instead.

**Retention contract.** The performance simulator's per-packet kinds
(service, spray, history depth, NIC drops, lock waits) are *retained*
only for span-sampled packets and *counted* for every packet
(:meth:`EventTracer.count`), so whole-run ``type_counts`` and ``emitted``
stay exact while the ring holds a sample.  During a staged run
(:meth:`EventTracer.stage`) those kinds and every ``span.*`` event
(:data:`STAGED_RANK`) wait in a buffer of at most about twice the ring;
:meth:`EventTracer.release` then retains them in one canonical order, or
only counts them (a failing MLFFR probe).  Every other kind (``fault.*``, ``recovery.*``,
``scr.fast_forward``, summaries) is retained as it is emitted.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Event",
    "EventTracer",
    "NULL_TRACER",
    "EV_WIRE_DROP",
    "EV_RING_DROP",
    "EV_PCIE_DROP",
    "EV_SERVICE",
    "EV_SPRAY",
    "EV_HISTORY_DEPTH",
    "EV_FAST_FORWARD",
    "EV_RECOVERY_START",
    "EV_RECOVERY_FINISH",
    "EV_RECOVERY_BLOCKED",
    "EV_LOCK_WAIT",
    "EV_MLFFR_PROBE",
    "EV_RUN_SUMMARY",
    "EV_FAULT_DROP",
    "EV_FAULT_POP_DROP",
    "EV_FAULT_DUPLICATE",
    "EV_FAULT_REORDER",
    "EV_FAULT_TRUNCATE",
    "EV_FAULT_STALL",
    "EV_FAULT_KILL",
    "EV_DIVERGENCE",
    "EV_GAP_DETECTED",
    "EV_QUARANTINE",
    "EV_RESYNC",
    "EV_UNRECOVERABLE",
    "STAGED_RANK",
]

# -- the event catalog (documented in docs/TELEMETRY.md) -----------------------

#: MAC FIFO overflow: offered rate exceeded the wire (Fig. 10a's regime).
EV_WIRE_DROP = "nic.wire_drop"
#: RX descriptor ring full: the core lagged the arrival rate.
EV_RING_DROP = "nic.ring_drop"
#: Host-interconnect saturation (PCIe DMA + descriptor bytes, §4.2).
EV_PCIE_DROP = "nic.pcie_drop"
#: One packet's service on a core (start + duration → a trace-viewer span).
EV_SERVICE = "core.service"
#: SCR sequencer spray decision: sequence → core.
EV_SPRAY = "scr.spray"
#: Piggybacked history items fast-forwarded before the current packet.
EV_HISTORY_DEPTH = "scr.history_depth"
#: Catch-up fast-forward across a loss gap (length = sequences recovered).
EV_FAST_FORWARD = "scr.fast_forward"
#: Algorithm 1 recovery walk started (a gap was detected).
EV_RECOVERY_START = "recovery.round_start"
#: Recovery walk finished; fields say how many were recovered vs skipped.
EV_RECOVERY_FINISH = "recovery.round_finish"
#: Recovery walk parked waiting on another core's NOT_INIT log slot.
EV_RECOVERY_BLOCKED = "recovery.blocked_wait"
#: Lock/atomic serialization stall on a shared-state engine.
EV_LOCK_WAIT = "lock.wait"
#: One MLFFR binary-search probe: offered rate and measured loss.
EV_MLFFR_PROBE = "mlffr.probe"
#: End-of-run summary from the event simulator (totals, drops, duration).
EV_RUN_SUMMARY = "sim.run"
#: Injected wire→ring loss: admitted by the MAC, never reached its ring.
EV_FAULT_DROP = "fault.drop"
#: Injected ring-pop loss: descriptor consumed, payload discarded.
EV_FAULT_POP_DROP = "fault.pop_drop"
#: Injected duplicate delivery of one frame.
EV_FAULT_DUPLICATE = "fault.duplicate"
#: Injected reordering: a frame displaced behind younger arrivals.
EV_FAULT_REORDER = "fault.reorder"
#: Injected history truncation: the sequencer emitted zeroed history rows.
EV_FAULT_TRUNCATE = "fault.truncate"
#: Injected core stall: a core paused before serving a packet.
EV_FAULT_STALL = "fault.stall"
#: Injected core kill: a core stopped draining its ring permanently.
EV_FAULT_KILL = "fault.kill"
#: The DivergenceMonitor observed replicas disagreeing with the majority.
EV_DIVERGENCE = "fault.divergence"
#: A replica detected a history gap it has no protocol to repair
#: (no-recovery mode): the fork is visible but uncorrected.
EV_GAP_DETECTED = "recovery.gap_detected"
#: A core detected an uncoverable history gap and quarantined its replica.
EV_QUARANTINE = "recovery.quarantine"
#: A quarantined replica resynchronized from an epoch checkpoint.
EV_RESYNC = "recovery.resync"
#: A gap exceeded the sequencer's bounded replay log; the replica is dead.
EV_UNRECOVERABLE = "recovery.unrecoverable"

#: The kinds a staged run buffers — the per-packet kinds (service, spray,
#: history depth, the three NIC drops, lock waits) and every ``span.*``
#: stage — each with its rank: staged records leave the buffer sorted by
#: (ts, packet index, rank), rank being the datapath order of a packet's
#: records at one instant.
STAGED_RANK: Dict[str, int] = {kind: rank for rank, kind in enumerate((
    "span.nic_arrival", EV_SPRAY, EV_WIRE_DROP, EV_PCIE_DROP,
    "span.fault_drop", EV_RING_DROP, "span.ring_enqueue", "span.core_pop",
    EV_HISTORY_DEPTH, "span.gap_detected", "span.quarantine",
    "span.checkpoint_fetch", "span.history_ff", "span.replay",
    "span.transition", "span.resync", EV_LOCK_WAIT, EV_SERVICE,
))}


def _canonical(row: Tuple[float, int, int, "Event"]) -> Tuple[float, int, int]:
    """A staged row's place in the canonical order (ts, index, rank)."""
    return row[:3]


class Event:
    """One trace record: (ts_ns, kind, core, dur_ns, fields)."""

    __slots__ = ("ts_ns", "kind", "core", "dur_ns", "fields")

    def __init__(
        self,
        ts_ns: float,
        kind: str,
        core: Optional[int] = None,
        dur_ns: Optional[float] = None,
        fields: Optional[dict] = None,
    ) -> None:
        self.ts_ns = ts_ns
        self.kind = kind
        self.core = core
        self.dur_ns = dur_ns
        self.fields = fields or {}

    def to_dict(self) -> dict:
        d = {"ts_ns": self.ts_ns, "kind": self.kind}
        if self.core is not None:
            d["core"] = self.core
        if self.dur_ns is not None:
            d["dur_ns"] = self.dur_ns
        if self.fields:
            d.update(self.fields)
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging cosmetics
        return (f"Event({self.ts_ns:.0f}ns {self.kind}"
                f"{'' if self.core is None else f' core={self.core}'})")


class EventTracer:
    """Ring-buffered event sink; disabled instances retain nothing.

    ``emit`` is the only hot-path method: when ``enabled`` is False it
    returns immediately (hot loops may also hoist the flag check).  The
    ring is a ``deque(maxlen=capacity)`` — appends from the threaded
    engine's worker threads are safe under the GIL.
    """

    __slots__ = ("enabled", "capacity", "_ring", "type_counts", "emitted",
                 "_tick", "_staged", "_stage_limit")

    def __init__(self, capacity: int = 100_000, enabled: bool = True) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.enabled = enabled
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        #: per-kind counts over the whole run (not just the retained ring).
        self.type_counts: Dict[str, int] = {}
        self.emitted = 0
        self._tick = 0.0
        #: sampled records of the current staged run (None: not staging).
        self._staged: Optional[List[Tuple[float, int, int, Event]]] = None
        #: staged rows that trigger a prune to the ``capacity`` survivors.
        self._stage_limit = max(2 * capacity, 1024)

    def emit(
        self,
        kind: str,
        ts_ns: Optional[float] = None,
        core: Optional[int] = None,
        dur_ns: Optional[float] = None,
        **fields,
    ) -> None:
        if not self.enabled:
            return
        if self._staged is not None and ts_ns is not None:
            rank = STAGED_RANK.get(kind)
            if rank is not None:
                self._staged.append((ts_ns, fields.get("index", -1), rank,
                                     Event(ts_ns, kind, core, dur_ns, fields)))
                if len(self._staged) > self._stage_limit:
                    self._prune_staged()
                return
        if ts_ns is None:
            self._tick += 1.0
            ts_ns = self._tick
        elif ts_ns > self._tick:
            self._tick = ts_ns
        self._ring.append(Event(ts_ns, kind, core, dur_ns, fields))
        self.type_counts[kind] = self.type_counts.get(kind, 0) + 1
        self.emitted += 1

    def count(self, kind: str, n: int = 1) -> None:
        """Count ``n`` events of ``kind`` without retaining any."""
        if not self.enabled or n <= 0:
            return
        self.type_counts[kind] = self.type_counts.get(kind, 0) + n
        self.emitted += n

    def emit_sampled(
        self,
        sampled: bool,
        kind: str,
        ts_ns: float,
        core: Optional[int] = None,
        dur_ns: Optional[float] = None,
        **fields,
    ) -> None:
        """One per-packet record: emitted when its packet is ``sampled``,
        otherwise only counted (the retention contract)."""
        if sampled:
            self.emit(kind, ts_ns=ts_ns, core=core, dur_ns=dur_ns, **fields)
        else:
            self.count(kind)

    # -- staged runs ---------------------------------------------------------------

    def stage(self) -> None:
        """Buffer per-packet and span records until :meth:`release`."""
        if self.enabled:
            self._staged = []

    def _prune_staged(self) -> None:
        """Count now, and drop, the staged rows that cannot survive
        :meth:`release`: only the ``capacity`` last in canonical order
        reach the ring, so a staged run holds at most about twice it."""
        staged = self._staged
        staged.sort(key=_canonical)
        cut = len(staged) - self.capacity
        for row in staged[:cut]:
            self.count(row[3].kind)
        del staged[:cut]

    def release(self, retain: bool = True) -> None:
        """End a staged run: retain its buffered records in canonical order
        (timestamp, packet index, datapath rank), or only count them."""
        staged, self._staged = self._staged, None
        if not staged:
            return
        if not retain:
            for row in staged:
                self.count(row[3].kind)
            return
        staged.sort(key=_canonical)
        for row in staged:
            event = row[3]
            if event.ts_ns > self._tick:
                self._tick = event.ts_ns
            self._ring.append(event)
            self.type_counts[event.kind] = self.type_counts.get(event.kind, 0) + 1
        self.emitted += len(staged)

    # -- reading back -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[Event]:
        return iter(list(self._ring))

    def events(self) -> List[Event]:
        """Retained events, oldest first (at most ``capacity``)."""
        return list(self._ring)

    @property
    def dropped(self) -> int:
        """Events emitted but not retained: evicted from the ring, or only
        counted under the retention contract."""
        return self.emitted - len(self._ring)

    def cores_seen(self) -> List[int]:
        return sorted({e.core for e in self._ring if e.core is not None})

    def clear(self) -> None:
        self._ring.clear()
        self.type_counts = {}
        self.emitted = 0
        self._tick = 0.0
        self._staged = None


#: The shared disabled tracer every layer defaults to.  Emitting to it is a
#: single attribute check — the "cheap when disabled" fast path.
NULL_TRACER = EventTracer(capacity=0, enabled=False)

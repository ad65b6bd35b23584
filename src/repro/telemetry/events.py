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
(:data:`STAGED_RANK`) wait in a buffer of at most about twice the ring:
event rows from the scalar loop, or column batches
(:class:`RecordBatch`, one per kind) from a committed columnar run.
:meth:`EventTracer.release` then retains them in one canonical order.
Inside a retention scope (:meth:`EventTracer.hold`, one MLFFR search)
each released batch waits for :meth:`EventTracer.settle`: a kept batch
replaces the held one, every other batch is only counted, and
:meth:`EventTracer.end_hold` retains the last kept batch once — so a
columnar search builds :class:`Event` objects only for the probe it
reports.  Every other kind (``fault.*``, ``recovery.*``,
``scr.fast_forward``, summaries) is retained as it is emitted.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Event",
    "EventTracer",
    "RecordBatch",
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


Row = Tuple[float, int, int, "Event"]


def _canonical(row: Row) -> Tuple[float, int, int]:
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


class RecordBatch:
    """One kind's staged records as columns: what a committed columnar
    run stages instead of one :class:`Event` per record.

    ``index``/``ts``/``core``/``dur`` are per-record arrays (``core`` and
    ``dur`` may be None), ``fields`` the ``(name, column)`` pairs in the
    order an event's fields take, and ``ids`` an optional function of the
    index column giving leading ``(name, values)`` fields (span ids),
    called only when records become events.
    """

    __slots__ = ("kind", "rank", "index", "ts", "core", "dur", "fields", "ids")

    def __init__(self, kind: str, index: np.ndarray, ts: np.ndarray,
                 core: Optional[np.ndarray] = None,
                 dur: Optional[np.ndarray] = None,
                 fields: Sequence[Tuple[str, np.ndarray]] = (),
                 ids: Optional[Callable[[np.ndarray],
                                        List[Tuple[str, list]]]] = None,
                 ) -> None:
        self.kind = kind
        self.rank = STAGED_RANK[kind]
        self.index = index
        self.ts = ts
        self.core = core
        self.dur = dur
        self.fields = tuple(fields)
        self.ids = ids

    def __len__(self) -> int:
        return len(self.index)

    def take(self, pos: np.ndarray) -> "RecordBatch":
        """The records at positions ``pos``."""
        return RecordBatch(
            self.kind, self.index[pos], self.ts[pos],
            None if self.core is None else self.core[pos],
            None if self.dur is None else self.dur[pos],
            [(name, col[pos]) for name, col in self.fields], self.ids)

    def events(self) -> List["Event"]:
        """The batch as events, in its own order."""
        n = len(self)
        columns = self.ids(self.index) if self.ids is not None else []
        columns += [(name, col.tolist()) for name, col in self.fields]
        names = [name for name, _ in columns]
        cores = [None] * n if self.core is None else self.core.tolist()
        durs = [None] * n if self.dur is None else self.dur.tolist()
        kind = self.kind
        return [Event(ts, kind, core, dur, dict(zip(names, values)))
                for ts, core, dur, values in zip(
                    self.ts.tolist(), cores, durs,
                    zip(*[values for _, values in columns]))]


class _Staged:
    """A staged run's sampled records: event rows (the scalar loop) and
    column batches (a committed columnar run's post-pass)."""

    __slots__ = ("rows", "batches")

    def __init__(self) -> None:
        self.rows: List[Row] = []
        self.batches: List[RecordBatch] = []

    def __len__(self) -> int:
        return len(self.rows) + sum(len(b) for b in self.batches)

    def last_ts(self) -> float:
        """The largest stamp: the last one in canonical order."""
        stamps = [row[0] for row in self.rows]
        stamps += [float(b.ts.max()) for b in self.batches]
        return max(stamps) if stamps else float("-inf")

    def kind_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for row in self.rows:
            kind = row[3].kind
            counts[kind] = counts.get(kind, 0) + 1
        for b in self.batches:
            counts[b.kind] = counts.get(b.kind, 0) + len(b)
        return counts

    def _order(self) -> np.ndarray:
        """Canonical order of every record, as positions in the sequence
        :attr:`rows` then each batch in turn."""
        rows = self.rows
        ts = [np.array([r[0] for r in rows], dtype=np.float64)]
        index = [np.array([r[1] for r in rows], dtype=np.int64)]
        rank = [np.array([r[2] for r in rows], dtype=np.int64)]
        for b in self.batches:
            ts.append(b.ts)
            index.append(b.index)
            rank.append(np.full(len(b), b.rank))
        return np.lexsort((np.concatenate(rank), np.concatenate(index),
                           np.concatenate(ts)))

    def keep_last(self, count: int) -> "_Staged":
        """The last ``count`` records in canonical order, as a new staged
        run."""
        kept = _Staged()
        if count <= 0:
            return kept
        if not self.batches:
            self.rows.sort(key=_canonical)
            kept.rows = self.rows[max(len(self.rows) - count, 0):]
            return kept
        keep = np.sort(self._order()[-count:])
        ends = np.cumsum([len(self.rows)] + [len(b) for b in self.batches])
        cuts = np.searchsorted(keep, ends).tolist()
        kept.rows = [self.rows[p] for p in keep[:cuts[0]].tolist()]
        for b, lo, hi, offset in zip(self.batches, cuts, cuts[1:], ends):
            if hi > lo:
                kept.batches.append(b.take(keep[lo:hi] - offset))
        return kept

    def events(self) -> List["Event"]:
        """Every record as an event, in canonical order."""
        if not self.batches:
            self.rows.sort(key=_canonical)
            return [row[3] for row in self.rows]
        made = [row[3] for row in self.rows]
        for b in self.batches:
            made += b.events()
        return [made[p] for p in self._order().tolist()]


class EventTracer:
    """Ring-buffered event sink; disabled instances retain nothing.

    ``emit`` is the only hot-path method: when ``enabled`` is False it
    returns immediately (hot loops may also hoist the flag check).  The
    ring is a ``deque(maxlen=capacity)`` — appends from the threaded
    engine's worker threads are safe under the GIL.
    """

    __slots__ = ("enabled", "capacity", "_ring", "type_counts", "emitted",
                 "_tick", "_staged", "_stage_limit", "_held", "_pending")

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
        self._staged: Optional[_Staged] = None
        #: staged records that trigger a prune to the ``capacity`` survivors.
        self._stage_limit = max(2 * capacity, 1024)
        #: the kept batch of the open retention scope (None: no scope) and
        #: the released batch it has not settled yet.
        self._held: Optional[_Staged] = None
        self._pending = _Staged()

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
                rows = self._staged.rows
                rows.append((ts_ns, fields.get("index", -1), rank,
                             Event(ts_ns, kind, core, dur_ns, fields)))
                if len(rows) > self._stage_limit:
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
            self._staged = _Staged()

    def stage_columns(self, batch: RecordBatch) -> None:
        """Stage one kind's records as columns (a staged kind): like
        emitting each, but no :class:`Event` exists until the batch is
        retained.  Outside a staged run the batch is retained at once."""
        if not self.enabled or not len(batch):
            return
        if self._staged is None:
            lone = _Staged()
            lone.batches.append(batch)
            self._settle(lone, True)
            self._retain(lone)
            return
        self._staged.batches.append(batch)
        if len(self._staged) > self._stage_limit:
            self._prune_staged()

    def _prune_staged(self) -> None:
        """Count now, and drop, the staged records that cannot survive
        :meth:`release`: only the ``capacity`` last in canonical order
        reach the ring, so a staged run holds at most about twice it."""
        staged = self._staged
        kept = staged.keep_last(self.capacity)
        counts = staged.kind_counts()
        for kind, n in kept.kind_counts().items():
            counts[kind] -= n
        for kind, n in counts.items():
            self.count(kind, n)
        self._staged = kept

    def release(self) -> None:
        """End a staged run: retain its buffered records in canonical order
        (timestamp, packet index, datapath rank) — or, inside a retention
        scope, leave them for :meth:`settle`."""
        staged, self._staged = self._staged, None
        if staged is None:
            return
        if self._held is not None:
            self._pending = staged
            return
        self._settle(staged, True)
        self._retain(staged)

    def _settle(self, staged: _Staged, keep: bool) -> None:
        """Count ``staged``; a kept batch moves the tick to its last
        canonical stamp."""
        if keep and len(staged):
            last = staged.last_ts()
            if last > self._tick:
                self._tick = last
        counts = self.type_counts
        for kind, n in staged.kind_counts().items():
            counts[kind] = counts.get(kind, 0) + n
        self.emitted += len(staged)

    def _retain(self, staged: _Staged) -> None:
        """Append the records of ``staged`` that the ring keeps — the last
        ``capacity`` in canonical order — as events."""
        self._ring.extend(staged.keep_last(self.capacity).events())

    # -- retention scopes ----------------------------------------------------------

    def hold(self) -> None:
        """Open a retention scope: released batches wait for :meth:`settle`
        and at most one reaches the ring, at :meth:`end_hold`."""
        if self.enabled:
            self._held = _Staged()

    def settle(self, keep: bool) -> None:
        """Decide the last released batch: keep it in place of the held
        batch, or only count it.  Either way it is counted now, so counts
        and the tick are those of retaining every kept batch."""
        if self._held is None:
            return
        batch, self._pending = self._pending, _Staged()
        self._settle(batch, keep)
        if keep:
            self._held = batch

    def end_hold(self) -> None:
        """Close the scope: the held batch reaches the ring, once, and
        only its retained records ever become events."""
        if self._held is None:
            return
        self.settle(False)
        self._retain(self._held)
        self._held = None

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

    def clear(self) -> None:
        self._ring.clear()
        self.type_counts = {}
        self.emitted = 0
        self._tick = 0.0
        self._staged = None
        self._held = None
        self._pending = _Staged()


#: The shared disabled tracer every layer defaults to.  Emitting to it is a
#: single attribute check — the "cheap when disabled" fast path.
NULL_TRACER = EventTracer(capacity=0, enabled=False)

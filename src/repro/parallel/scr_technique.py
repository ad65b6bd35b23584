"""The SCR performance engine (§3).

Round-robin spraying, per-core private replicas — no serialization points,
no bouncing.  What SCR pays instead:

* **history fast-forward**: each packet's service grows by ``h × c2``
  where ``h`` is the number of piggybacked history items (``k-1`` in steady
  state) — the Appendix A model ``t + (k-1)·c2``;
* **bytes**: the sequencer's prefix enlarges every frame on the wire and
  across PCIe, which is what eventually caps scaling at the NIC
  (Figure 10a) — ``wire_len`` reports the enlarged frame;
* **memory**: every core holds *all* flows, so SCR's replicas spill out of
  L2 before a sharded layout would (scaling limit (ii), §3.1);
* optionally, **loss-recovery costs** (Figure 10b): per-packet log writes,
  and — when a :class:`~repro.faults.spec.FaultSpec` drops packets between
  the sequencer and a core — spinning on other cores' logs plus the
  catch-up transitions for each recovered sequence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, NamedTuple, Optional

import numpy as np

from ..core.packet_format import ScrPacketCodec
from ..cpu.costmodel import CPU_FREQ_GHZ
from ..cpu.simulator import PerfPacket
from ..telemetry.events import (
    EV_FAST_FORWARD,
    EV_HISTORY_DEPTH,
    EV_QUARANTINE,
    EV_RESYNC,
    EV_SPRAY,
    RecordBatch,
)
from .base import BaseEngine, Terms, pick

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cpu.columnar import ColumnarRun
    from ..cpu.simulator import PerfTrace

__all__ = ["GapCharge", "ScrEngine"]

#: How a replica heals a history gap (:attr:`GapCharge.kind`).
COVERED, PEER_LOG, RESYNC = 0, 1, 2


class GapCharge(NamedTuple):
    """What one history gap costs the valid packet that meets it
    (:meth:`ScrEngine.gap_charge`): extra fast-forward work, a transfer
    stall and cold-state misses on top of the packet's own service.  Each
    field is a number, or a column with one row per gap."""

    #: :data:`COVERED`, :data:`PEER_LOG` or :data:`RESYNC`.
    kind: Any
    #: packets the fault plan stole from this core since its last service.
    gap: Any
    #: sequences the replica missed (round robin spreads ``gap`` steals).
    missed: Any
    #: sequences fast-forwarded (``RESYNC``: replayed after the fetch).
    length: Any
    catchup_ns: Any
    transfer_ns: Any
    misses: Any


class ScrEngine(BaseEngine):
    """Performance model of state-compute replication across cores."""

    name = "scr"

    def __init__(
        self,
        *args,
        num_slots: Optional[int] = None,
        dummy_eth: bool = True,
        with_recovery: bool = False,
        extra_compute_ns: float = 0.0,
        count_wire_overhead: bool = True,
        fault_epoch_len: int = 32,
        **kwargs,
    ) -> None:
        """``extra_compute_ns`` inflates both ``c1`` and ``c2`` — the knob the
        Figure 9 compute-latency sweep turns.

        ``count_wire_overhead`` controls whether the sequencer's prefix adds
        to each frame's wire size.  The Figure 6/7 methodology truncates
        packets to a fixed size *including* the piggybacked history ("the
        packet size limits the number of items of history metadata", §4.2),
        so those sweeps pass False; Figure 10a feeds bare 64-byte packets
        and lets SCR alone inflate them, so it keeps the default True.

        ``with_recovery`` adds Algorithm 1's per-packet log writes and
        heals history gaps the window cannot cover from peer logs instead
        of a checkpoint resync (see :meth:`gap_charge`).

        ``fault_epoch_len`` is the sequencer's checkpoint epoch for the
        quarantine-resync cost model (see :meth:`gap_charge`): a
        resyncing core replays on average half an epoch past the gap.
        """
        super().__init__(*args, **kwargs)
        self.num_slots = num_slots if num_slots is not None else self.num_cores
        if self.num_slots < self.num_cores:
            raise ValueError("history slots must cover the core count")
        self.codec = ScrPacketCodec(
            meta_size=self.program.metadata_size,
            num_slots=self.num_slots,
            dummy_eth=dummy_eth,
        )
        self.count_wire_overhead = count_wire_overhead
        self.with_recovery = with_recovery
        self.extra_compute_ns = extra_compute_ns
        if fault_epoch_len < 1:
            raise ValueError("fault_epoch_len must be >= 1")
        self.fault_epoch_len = fault_epoch_len
        self._rr = 0
        self._seq = 0
        #: per-core count of fault drops (repro.faults) awaiting gap
        #: handling on the core's next service.
        self._fault_gap = [0] * self.num_cores
        self.fault_gaps = 0
        self.fault_gaps_covered = 0
        self.quarantines = 0
        self.resyncs = 0
        self.resync_replayed = 0
        self.resync_ns_total = 0.0

    def reset(self) -> None:
        super().reset()
        self._rr = 0
        self._seq = 0
        self._fault_gap = [0] * self.num_cores
        self.fault_gaps = 0
        self.fault_gaps_covered = 0
        self.quarantines = 0
        self.resyncs = 0
        self.resync_replayed = 0
        self.resync_ns_total = 0.0

    # -- protocol -----------------------------------------------------------------

    def wire_len(self, pp: PerfPacket) -> int:
        if not self.count_wire_overhead:
            return pp.wire_len
        return pp.wire_len + self.codec.overhead_bytes

    def dma_len(self, pp: PerfPacket) -> int:
        """Bytes crossing the host interconnect per packet.

        With a ToR-switch sequencer the wire and PCIe see the same frame.
        With a NIC-resident sequencer (``dummy_eth=False``) the history is
        appended *after* the MAC, so PCIe carries it even when the wire
        does not — the §4.2 PCIe-transaction overhead.
        """
        if self.count_wire_overhead:
            return self.wire_len(pp)
        if not self.codec.dummy_eth:  # NIC-resident sequencer
            return pp.wire_len + self.codec.overhead_bytes
        return pp.wire_len

    def steer(self, pp: PerfPacket) -> int:
        self._seq += 1
        core = self._rr
        self._rr = (self._rr + 1) % self.num_cores
        return core

    def record_steer(self, pp: PerfPacket, core: int, now_ns: float) -> None:
        """The spray record of the packet just steered, stamped at its
        arrival ``now_ns`` (counted for all, kept when sampled)."""
        if self.tracer.enabled:
            self.tracer.emit_sampled(
                self.spans.sampled(pp.index), EV_SPRAY, now_ns, core=core,
                seq=self._seq, index=pp.index)

    def note_fault_drop(self, core: int, pp: PerfPacket) -> None:
        """A repro.faults drop stole a packet already sprayed to ``core``.

        The replica will see a sequence hole on its next delivery; the
        recovery work (window catch-up, peer-log catch-up, or an
        epoch-checkpoint resync — see :meth:`gap_charge`) is charged to
        that next valid packet's service time.
        """
        self._fault_gap[core] += 1

    def fault_summary(self) -> dict:
        """Recovery-cost counters for SimResult.fault_stats."""
        return {
            "fault_gaps": self.fault_gaps,
            "fault_gaps_covered": self.fault_gaps_covered,
            "quarantines": self.quarantines,
            "resyncs": self.resyncs,
            "resync_replayed": self.resync_replayed,
            "resync_ns_total": self.resync_ns_total,
            "resync_cycles_total": self.resync_ns_total * CPU_FREQ_GHZ,
        }

    def gap_charge(self, gap: Any, h: Any) -> GapCharge:
        """The recovery a gap of ``gap`` stolen packets costs the valid
        packet of history depth ``h`` that meets it — the one gap model
        both hot paths charge, over one gap's ints or columns of them (a
        zero gap charges nothing).

        Round-robin spraying turns ``gap`` steals into ``(gap+1)*k - 1``
        missed sequences.  A widened history window (``num_slots > k``)
        may still cover them: extra fast-forward beyond the natural ``h``.
        Otherwise Algorithm 1 (App. B, ``with_recovery``) reads each lost
        sequence from another core's log (a cross-core transfer per probe)
        and fast-forwards through it.  Without it the replica quarantines:
        it fetches the sequencer's newest epoch checkpoint and replays, on
        average, half an epoch of logged metadata past the missed ones
        (the restored snapshot is cold: one miss).
        """
        missed = (gap + 1) * self.num_cores - 1
        covered = missed <= self.num_slots
        if self.with_recovery:
            probes = 1 + (self.num_cores - 1) / 2
            kind, length = PEER_LOG, gap
            transfer = gap * probes * self.contention.recovery_probe_ns
            misses = gap * 1.0  # one miss per stolen packet, as a float
        else:
            kind, length = RESYNC, missed + self.fault_epoch_len // 2
            transfer, misses = self.contention.checkpoint_fetch_ns, 1.0
        length = pick(gap, pick(covered, missed - h, length), 0)
        return GapCharge(pick(covered, COVERED, kind), gap, missed, length,
                         self._fast_forward(length),
                         pick(covered, 0.0, transfer),
                         pick(covered, 0.0, misses))

    def _count_gaps(self, charge: GapCharge) -> None:
        """Add charged gaps — one, or columns of them in pop order — to
        the recovery counters (``fault_summary``)."""
        kind = np.atleast_1d(charge.kind)
        resync = kind == RESYNC
        count = int(np.count_nonzero(resync))
        self.fault_gaps += len(kind)
        self.fault_gaps_covered += int(np.count_nonzero(kind == COVERED))
        self.quarantines += count
        self.resyncs += count
        self.resync_replayed += int(np.atleast_1d(charge.length)[resync].sum())
        for ns in np.atleast_1d(
                charge.catchup_ns + charge.transfer_ns)[resync].tolist():
            self.resync_ns_total += ns

    def record_gap(self, charge: GapCharge, core: int, start_ns: float) -> None:
        """A charged gap's recovery records, retained in full (emitted by
        ``service_ns``, or by the columnar driver in the loop's order)."""
        tracer = self.tracer
        if charge.kind != RESYNC:
            tracer.emit(EV_FAST_FORWARD, ts_ns=start_ns, core=core,
                        length=charge.length)
            return
        tracer.emit(EV_QUARANTINE, ts_ns=start_ns, core=core,
                    gap=charge.gap, missed=charge.missed)
        tracer.emit(EV_RESYNC, ts_ns=start_ns, core=core,
                    dur_ns=charge.catchup_ns + charge.transfer_ns,
                    replayed=charge.length)

    def _fast_forward(self, h: Any) -> Any:
        """The work of fast-forwarding ``h`` history items: ``h·c2``, each
        item inflated by Fig. 9's extra compute."""
        return h * (self.costs.c2 + self.extra_compute_ns)

    def _service_terms(self, valid: Any, h: Any, miss_frac: Any,
                       spill_ns: Any, charge: Optional[GapCharge] = None
                       ) -> Terms:
        """SCR's term function, over one packet's numbers or columns alike,
        in ``service_ns``'s float order: a valid packet's Appendix A row
        ``d + c1 + h·c2 (+ catch-up) + spill (+ log writes) (+ transfer)``
        with the gap ``charge`` it pays (None: none), an invalid packet's
        ``d + c1`` (both with Fig. 9's extra compute)."""
        c = self.costs
        extra = self.extra_compute_ns
        history = self._fast_forward(h)
        compute = (c.c1 + extra) + history
        transfer = 0.0
        if charge is not None:
            compute = compute + charge.catchup_ns
            history = history + charge.catchup_ns
            transfer = charge.transfer_ns
            miss_frac = miss_frac + charge.misses
        log_ns = 0.0
        if self.with_recovery:
            # Logging the h history items plus the packet's own entry.
            log_ns = (h + 1) * self.contention.log_write_ns
        total = (((c.d + compute) + spill_ns) + log_ns) + transfer
        compute = pick(valid, (compute + spill_ns) + log_ns, c.c1 + extra)
        return Terms(pick(valid, total, c.d + c.c1 + extra), compute,
                     transfer, valid, miss_frac, compute + transfer,
                     pick(valid, history, 0.0))

    def _history_items(self) -> int:
        """Fast-forward work per packet: k-1 in steady state, fewer early."""
        return min(max(self._seq - 1, 0), self.num_cores - 1)

    def _record_service(self, sampled: bool, index: int, core: int,
                        start_ns: float, h: int) -> None:
        """A valid packet's service records, on both hot paths: its history
        depth (counted for all, kept when sampled) and, for a sampled
        packet, the fast-forward and transition spans.  Observational
        only: the spans re-derive the cost model's own intervals."""
        if not sampled:
            self.tracer.count(EV_HISTORY_DEPTH)
            return
        if self.tracer.enabled:
            self.tracer.emit(EV_HISTORY_DEPTH, ts_ns=start_ns, core=core,
                             depth=h, index=index)
        c = self.costs
        history = self._fast_forward(h)
        self.spans.emit("history_ff", index, ts_ns=start_ns + c.d,
                        dur_ns=history, core=core, depth=h)
        self.spans.emit("transition", index, ts_ns=start_ns + c.d + history,
                        dur_ns=c.c1 + self.extra_compute_ns, core=core)

    # -- columnar hot-path hooks (docs/HOTPATH.md) --------------------------------

    #: A fault drop charges gap recovery to the core's next valid service.
    charges_fault_gaps = True

    def columnar_eligible(self, fault_drops: bool = False) -> bool:
        """Always: recovery logging is pure row math, congestion drops
        (wire, PCIe, ring) charge nothing, and the gap a fault drop leaves
        is charged from the pop events the driver solves
        (:meth:`gap_charge` per charged row)."""
        return True

    def wire_len_batch(self, trace: "PerfTrace") -> np.ndarray:
        if not self.count_wire_overhead:
            return trace.wire_lens
        return trace.wire_lens + self.codec.overhead_bytes

    def dma_len_batch(self, trace: "PerfTrace") -> np.ndarray:
        if self.count_wire_overhead:
            return self.wire_len_batch(trace)
        if not self.codec.dummy_eth:  # NIC-resident sequencer
            return trace.wire_lens + self.codec.overhead_bytes
        return trace.wire_lens

    def steer_batch(self, trace: "PerfTrace", rows: np.ndarray) -> np.ndarray:
        """Round-robin spraying as pure row math: the i-th steered packet
        goes to ``(rr + i) % k`` (state advances in
        :meth:`commit_steer_batch`)."""
        offsets = np.arange(len(rows), dtype=np.int64)
        return (self._rr + offsets) % self.num_cores

    def commit_steer_batch(self, count: int) -> None:
        self._seq += count
        self._rr = (self._rr + count) % self.num_cores

    def history_cap(self) -> int:
        return self.num_cores - 1

    def row_terms(
        self,
        trace: "PerfTrace",
        rows: Any,
        miss_frac: Any,
        spill_ns: Any,
        history_items: Any,
        gaps: Optional[Any] = None,
    ) -> Terms:
        charge = None if gaps is None else self.gap_charge(gaps, history_items)
        return self._service_terms(trace.valid[rows], history_items,
                                   miss_frac, spill_ns, charge)

    def count_committed(self, trace: "PerfTrace", rows: np.ndarray,
                        history_items: np.ndarray,
                        gaps: Optional[np.ndarray]) -> None:
        """The gap counters of the committed rows' gaps, in pop order (so
        ``resync_ns_total`` adds up as the scalar loop's does)."""
        if gaps is not None:
            charged = gaps > 0
            self._count_gaps(self.gap_charge(gaps[charged],
                                             history_items[charged]))

    def record_committed(self, trace: "PerfTrace", run: "ColumnarRun",
                         sampled: np.ndarray) -> None:
        """The spray and service records ``steer``/``service_ns`` emit,
        for a committed columnar run, staged as columns: every steered
        packet (fault-dropped ones too) was sprayed at its arrival as the
        sequence after its steered rank, every popped valid packet served
        at the depth the driver charged it, and a sampled packet that
        met an uncoverable gap also resynced.  The gaps' own recovery
        records are not staged: the driver emits them in the loop's order
        (:meth:`record_gap`)."""
        steered = run.cores >= 0
        served = run.popped & trace.valid
        sprayed = sampled[steered[sampled]]
        rows = sampled[served[sampled]]
        tracer = self.tracer
        if tracer.enabled:
            tracer.count(EV_SPRAY, int(np.count_nonzero(steered)) - len(sprayed))
            tracer.count(EV_HISTORY_DEPTH,
                         int(np.count_nonzero(served)) - len(rows))
            tracer.stage_columns(RecordBatch(
                EV_SPRAY, sprayed, run.arrivals[sprayed], run.cores[sprayed],
                fields=(("seq", run.steered_by[sprayed] + 1),
                        ("index", sprayed))))
        if not len(rows):
            return
        h = run.history[rows]
        start = run.starts[rows]
        cores = run.cores[rows]
        if tracer.enabled:
            tracer.stage_columns(RecordBatch(
                EV_HISTORY_DEPTH, rows, start, cores,
                fields=(("depth", h), ("index", rows))))
        c = self.costs
        history = self._fast_forward(h)
        self.spans.emit_columns("history_ff", rows, start + c.d, core=cores,
                                dur_ns=history, depth=h)
        self.spans.emit_columns(
            "transition", rows, (start + c.d) + history, core=cores,
            dur_ns=np.full(len(rows), c.c1 + self.extra_compute_ns))
        charged = rows[run.gaps[rows] > 0]
        charge = self.gap_charge(run.gaps[charged], run.history[charged])
        resync = charge.kind == RESYNC
        if not resync.any():
            return
        rows = charged[resync]
        start = run.starts[rows]
        cores = run.cores[rows]
        fetch = charge.transfer_ns[resync]
        catchup = charge.catchup_ns[resync]
        spans = self.spans
        spans.emit_columns("quarantine", rows, start, core=cores,
                           gap=run.gaps[rows], missed=charge.missed[resync])
        spans.emit_columns("checkpoint_fetch", rows, start, core=cores,
                           dur_ns=fetch)
        spans.emit_columns("replay", rows, start + fetch, core=cores,
                           dur_ns=catchup, replayed=charge.length[resync])
        spans.emit_columns("resync", rows, (start + fetch) + catchup,
                           core=cores)

    def service_ns(self, core: int, pp: PerfPacket, start_ns: float) -> float:
        if not pp.valid:
            return self._charge(core, self._service_terms(False, 0, 0.0, 0.0))
        h = self._history_items()
        spans = self.spans
        pp_sampled = spans.enabled and spans.sampled(pp.index)
        if self.tracer.enabled or pp_sampled:
            self._record_service(pp_sampled, pp.index, core, start_ns, h)
        # Every core holds every flow, so spill is judged against the full
        # (replicated) working set.
        miss_frac, spill = self.l2.access(core, pp.key)
        charge = None
        gap = self._fault_gap[core]
        if gap:
            hp = self.hostprof
            hp_t0 = hp.now() if hp.enabled else 0
            self._fault_gap[core] = 0
            charge = self.gap_charge(gap, h)
            self._count_gaps(charge)
            if self.tracer.enabled:
                self.record_gap(charge, core, start_ns)
            if pp_sampled and charge.kind == RESYNC:
                fetch, catchup = charge.transfer_ns, charge.catchup_ns
                spans.emit("quarantine", pp.index, ts_ns=start_ns,
                           core=core, gap=gap, missed=charge.missed)
                spans.emit("checkpoint_fetch", pp.index, ts_ns=start_ns,
                           dur_ns=fetch, core=core)
                spans.emit("replay", pp.index, ts_ns=start_ns + fetch,
                           dur_ns=catchup, core=core, replayed=charge.length)
                spans.emit("resync", pp.index,
                           ts_ns=start_ns + fetch + catchup, core=core)
            if hp.enabled:
                # Wall cost of gap-recovery fast-forward/resync modeling
                # (steady-state history replay is pure arithmetic in
                # :meth:`_service_terms`).
                hp.charge("scr.history_ff", hp_t0)
        return self._charge(core, self._service_terms(True, h, miss_frac,
                                                      spill, charge))

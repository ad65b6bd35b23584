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

from typing import TYPE_CHECKING, NamedTuple, Optional, Tuple

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
from .base import BaseEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cpu.columnar import ColumnarRun
    from ..cpu.simulator import PerfTrace

__all__ = ["GapCharge", "ScrEngine"]

#: How a replica heals a history gap (:attr:`GapCharge.kind`).
COVERED, PEER_LOG, RESYNC = 0, 1, 2


class GapCharge(NamedTuple):
    """What one history gap costs the valid packet that meets it
    (:meth:`ScrEngine.gap_charge`): extra fast-forward work, a transfer
    stall and cold-state misses on top of the packet's own service."""

    #: :data:`COVERED`, :data:`PEER_LOG` or :data:`RESYNC`.
    kind: int
    #: packets the fault plan stole from this core since its last service.
    gap: int
    #: sequences the replica missed (round robin spreads ``gap`` steals).
    missed: int
    #: sequences fast-forwarded (``RESYNC``: replayed after the fetch).
    length: int
    catchup_ns: float
    transfer_ns: float
    misses: float


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

    def gap_charge(self, gap: int, h: int) -> GapCharge:
        """The recovery a gap of ``gap`` stolen packets costs the valid
        packet of history depth ``h`` that meets it — the one gap model
        both hot paths charge (``service_ns`` and the batched hooks).

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
        c = self.costs
        step = c.c2 + self.extra_compute_ns
        missed = (gap + 1) * self.num_cores - 1
        if missed <= self.num_slots:
            return GapCharge(COVERED, gap, missed, missed - h,
                             (missed - h) * step, 0.0, 0.0)
        if self.with_recovery:
            probes = 1 + (self.num_cores - 1) / 2
            return GapCharge(PEER_LOG, gap, missed, gap, gap * step,
                             gap * probes * self.contention.recovery_probe_ns,
                             float(gap))
        replay = missed + self.fault_epoch_len // 2
        return GapCharge(RESYNC, gap, missed, replay, replay * step,
                         self.contention.checkpoint_fetch_ns, 1.0)

    def _count_gap(self, charge: GapCharge) -> None:
        """Add one charged gap to the recovery counters (``fault_summary``)."""
        self.fault_gaps += 1
        if charge.kind == COVERED:
            self.fault_gaps_covered += 1
        elif charge.kind == RESYNC:
            self.quarantines += 1
            self.resyncs += 1
            self.resync_replayed += charge.length
            self.resync_ns_total += charge.catchup_ns + charge.transfer_ns

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

    def _service_terms(self, h, spill_ns, catchup, transfer) -> Tuple:
        """A valid packet's ``(service, compute charge, history charge)``
        in ``service_ns``'s float order, over scalars or arrays alike: the
        Appendix A row ``d + c1 + h·c2 (+ catch-up) + spill (+ log writes)
        (+ transfer)``.  A zero catch-up or transfer adds nothing."""
        c = self.costs
        extra = self.extra_compute_ns
        history = h * (c.c2 + extra)
        compute = ((c.c1 + extra) + history) + catchup
        log_ns = 0.0
        if self.with_recovery:
            # Logging the h history items plus the packet's own entry.
            log_ns = (h + 1) * self.contention.log_write_ns
        total = (((c.d + compute) + spill_ns) + log_ns) + transfer
        return total, (compute + spill_ns) + log_ns, history + catchup

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
        extra = self.extra_compute_ns
        history = h * (c.c2 + extra)
        self.spans.emit("history_ff", index, ts_ns=start_ns + c.d,
                        dur_ns=history, core=core, depth=h)
        self.spans.emit("transition", index, ts_ns=start_ns + c.d + history,
                        dur_ns=c.c1 + extra, core=core)

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

    def _gap_terms(self, gaps: np.ndarray, history_items: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, list]:
        """Per-row catch-up, transfer and miss columns of the charged
        ``gaps`` (zero elsewhere), plus each charged row's
        :class:`GapCharge` in row order."""
        charged = np.flatnonzero(gaps)
        charges = [self.gap_charge(gap, h) for gap, h in zip(
            gaps[charged].tolist(), history_items[charged].tolist())]
        columns = np.zeros((3, len(gaps)), dtype=np.float64)
        if charges:
            columns[:, charged] = np.array(
                [(g.catchup_ns, g.transfer_ns, g.misses) for g in charges]).T
        return columns[0], columns[1], columns[2], charges

    def service_rows(
        self,
        trace: "PerfTrace",
        rows: np.ndarray,
        miss_frac: np.ndarray,
        spill_ns: np.ndarray,
        history_items: np.ndarray,
        gaps: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Batched service: :meth:`_service_terms` over whole arrays, with
        each row's gap charged when ``gaps`` is given."""
        catchup = transfer = 0.0
        if gaps is not None:
            catchup, transfer, _, _ = self._gap_terms(gaps, history_items)
        total = self._service_terms(history_items, spill_ns, catchup,
                                    transfer)[0]
        c = self.costs
        return np.where(trace.valid[rows], total,
                        c.d + c.c1 + self.extra_compute_ns)

    def service_row(self, trace: "PerfTrace", row: int, miss_frac: float,
                    spill_ns: float, h: int, gap: int = 0) -> float:
        """:meth:`service_rows` for one row, over plain floats."""
        c = self.costs
        if not trace.valid[row]:
            return c.d + c.c1 + self.extra_compute_ns
        catchup = transfer = 0.0
        if gap:
            charge = self.gap_charge(gap, h)
            catchup, transfer = charge.catchup_ns, charge.transfer_ns
        return self._service_terms(h, spill_ns, catchup, transfer)[0]

    def service_batch(
        self,
        trace: "PerfTrace",
        rows: np.ndarray,
        cores: np.ndarray,
        miss_frac: np.ndarray,
        spill_ns: np.ndarray,
        history_items: np.ndarray,
        gaps: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Serve ``rows`` (commit order) and charge the counters: the gap
        counters in that order (so ``resync_ns_total`` adds up as the
        scalar loop's does), each core's columns through
        ``charge_batch``."""
        c = self.costs
        extra = self.extra_compute_ns
        catchup = transfer = misses = 0.0
        if gaps is not None:
            catchup, transfer, misses, charges = self._gap_terms(
                gaps, history_items)
            for charge in charges:
                self._count_gap(charge)
        total, compute, history = self._service_terms(
            history_items, spill_ns, catchup, transfer)
        valid = trace.valid[rows]
        services = np.where(valid, total, c.d + c.c1 + extra)
        compute_col = np.where(valid, compute, c.c1 + extra)
        transfer_col = np.where(valid, transfer, 0.0)
        history_col = np.where(valid, history, 0.0)
        misses_col = np.where(valid, miss_frac + misses, 0.0)
        dispatch_col = np.full(len(rows), c.d, dtype=np.float64)
        accesses = valid.astype(np.int64)
        for core in range(self.num_cores):
            sel = np.flatnonzero(cores == core)
            if len(sel) == 0:
                continue
            self.counters.cores[core].charge_batch(
                dispatch_ns=dispatch_col[sel],
                compute_ns=compute_col[sel],
                transfer_ns=transfer_col[sel],
                state_accesses=accesses[sel],
                l2_misses=misses_col[sel],
                program_ns=compute_col[sel] + transfer_col[sel],
                history_ns=history_col[sel],
            )
        return services

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
        extra = self.extra_compute_ns
        history = h * (c.c2 + extra)
        self.spans.emit_columns("history_ff", rows, start + c.d, core=cores,
                                dur_ns=history, depth=h)
        self.spans.emit_columns("transition", rows, (start + c.d) + history,
                                core=cores,
                                dur_ns=np.full(len(rows), c.c1 + extra))
        charged = rows[run.gaps[rows] > 0]
        charges = [self.gap_charge(gap, depth) for gap, depth in zip(
            run.gaps[charged].tolist(), run.history[charged].tolist())]
        resync = np.array([g.kind == RESYNC for g in charges], dtype=bool)
        if not resync.any():
            return
        rows = charged[resync]
        charges = [g for g in charges if g.kind == RESYNC]
        start = run.starts[rows]
        cores = run.cores[rows]
        fetch = np.array([g.transfer_ns for g in charges])
        catchup = np.array([g.catchup_ns for g in charges])
        spans = self.spans
        spans.emit_columns("quarantine", rows, start, core=cores,
                           gap=run.gaps[rows],
                           missed=np.array([g.missed for g in charges]))
        spans.emit_columns("checkpoint_fetch", rows, start, core=cores,
                           dur_ns=fetch)
        spans.emit_columns("replay", rows, start + fetch, core=cores,
                           dur_ns=catchup,
                           replayed=np.array([g.length for g in charges]))
        spans.emit_columns("resync", rows, (start + fetch) + catchup,
                           core=cores)

    def service_ns(self, core: int, pp: PerfPacket, start_ns: float) -> float:
        c = self.costs
        counters = self.counters.cores[core]
        extra = self.extra_compute_ns
        if not pp.valid:
            counters.charge_packet(dispatch_ns=c.d, compute_ns=c.c1 + extra, state_accesses=0)
            return c.d + c.c1 + extra
        h = self._history_items()
        spans = self.spans
        pp_sampled = spans.enabled and spans.sampled(pp.index)
        if self.tracer.enabled or pp_sampled:
            self._record_service(pp_sampled, pp.index, core, start_ns, h)
        # Every core holds every flow, so spill is judged against the full
        # (replicated) working set.
        miss_frac, spill = self.l2.access(core, pp.key)
        catchup = transfer = misses = 0.0
        gap = self._fault_gap[core]
        if gap:
            hp = self.hostprof
            hp_t0 = hp.now() if hp.enabled else 0
            self._fault_gap[core] = 0
            charge = self.gap_charge(gap, h)
            self._count_gap(charge)
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
            catchup, transfer, misses = (
                charge.catchup_ns, charge.transfer_ns, charge.misses)
            if hp.enabled:
                # Wall cost of gap-recovery fast-forward/resync modeling
                # (steady-state history replay is pure arithmetic above).
                hp.charge("scr.history_ff", hp_t0)
        total, compute, history = self._service_terms(h, spill, catchup,
                                                      transfer)
        counters.charge_packet(
            dispatch_ns=c.d,
            compute_ns=compute,
            transfer_ns=transfer,
            state_accesses=1,
            l2_misses=miss_frac + misses,
            program_ns=compute + transfer,
            history_ns=history,
        )
        return total

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

from typing import TYPE_CHECKING, List, Optional

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
)
from .base import BaseEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cpu.columnar import ColumnarRun
    from ..cpu.simulator import PerfTrace

__all__ = ["ScrEngine"]


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
        of a checkpoint resync (see ``service_ns``).

        ``fault_epoch_len`` is the sequencer's checkpoint epoch for the
        quarantine-resync cost model (see ``note_fault_drop``): a
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

    def fits_in_frame(self, frame_bytes: int) -> bool:
        """Can this core count's history ride inside a fixed frame size?"""
        return self.codec.overhead_bytes <= frame_bytes

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
        epoch-checkpoint resync — see ``service_ns``) is charged to that
        next packet's service time.
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

    def columnar_eligible(self) -> bool:
        """Always: recovery *logging* is pure row math, and runs that lose
        packets carry a fault plan, which the columnar driver declines."""
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

    def steer_batch(self, trace: "PerfTrace") -> np.ndarray:
        """Round-robin spraying as pure row math (state advances in
        :meth:`commit_steer_batch`)."""
        offsets = np.arange(len(trace), dtype=np.int64)
        return (self._rr + offsets) % self.num_cores

    def commit_steer_batch(self, count: int) -> None:
        self._seq += count
        self._rr = (self._rr + count) % self.num_cores

    def history_cap(self) -> int:
        return self.num_cores - 1

    def service_rows(
        self,
        trace: "PerfTrace",
        rows: np.ndarray,
        miss_frac: np.ndarray,
        spill_ns: np.ndarray,
        history_items: np.ndarray,
    ) -> np.ndarray:
        """Batched history fast-forward: the Appendix A row math
        ``d + c1 + h·c2 (+ spill + log)`` over whole arrays, adding floats
        in the exact order :meth:`service_ns` does."""
        c = self.costs
        extra = self.extra_compute_ns
        history = history_items * (c.c2 + extra)
        compute = (c.c1 + extra) + history
        total = (c.d + compute) + spill_ns
        if self.with_recovery:
            total = total + (history_items + 1) * self.contention.log_write_ns
        return np.where(trace.valid[rows], total, c.d + c.c1 + extra)

    def service_batch(
        self,
        trace: "PerfTrace",
        rows: np.ndarray,
        cores: np.ndarray,
        start_ns: np.ndarray,
        steered_before: np.ndarray,
    ) -> np.ndarray:
        from ..cpu.columnar import l2_spill_rows

        c = self.costs
        extra = self.extra_compute_ns
        h = np.minimum(np.maximum(steered_before - 1, 0), self.history_cap())
        miss_frac, spill = l2_spill_rows(
            self.l2, trace, rows, cores, self.num_cores, commit=True)
        services = self.service_rows(trace, rows, miss_frac, spill, h)
        valid = trace.valid[rows]
        history = h * (c.c2 + extra)
        charge = ((c.c1 + extra) + history) + spill
        if self.with_recovery:
            charge = charge + (h + 1) * self.contention.log_write_ns
        compute_col = np.where(valid, charge, c.c1 + extra)
        history_col = np.where(valid, history, 0.0)
        dispatch_col = np.full(len(rows), c.d, dtype=np.float64)
        accesses = valid.astype(np.int64)
        for core in range(self.num_cores):
            sel = np.flatnonzero(cores == core)
            if len(sel) == 0:
                continue
            self.counters.cores[core].charge_batch(
                dispatch_ns=dispatch_col[sel],
                compute_ns=compute_col[sel],
                state_accesses=accesses[sel],
                l2_misses=miss_frac[sel],
                program_ns=compute_col[sel],
                history_ns=history_col[sel],
            )
        return services

    def record_committed(self, trace: "PerfTrace", run: "ColumnarRun",
                         sampled: List[int]) -> None:
        """The spray and service records ``steer``/``service_ns`` emit,
        for a committed columnar run: no drops, so packet ``i`` was
        sprayed as sequence ``i + 1`` at its arrival, and every popped
        valid packet served with the depth :meth:`service_batch` charged."""
        served = run.popped & trace.valid
        if self.tracer.enabled:
            served_sampled = int(np.count_nonzero(served[sampled]))
            self.tracer.count(EV_SPRAY, len(run.arrivals) - len(sampled))
            self.tracer.count(EV_HISTORY_DEPTH,
                              int(np.count_nonzero(served)) - served_sampled)
        if not sampled:
            return
        rows = np.asarray(sampled, dtype=np.int64)
        h = np.minimum(np.maximum(run.pop_event[rows] - 1, 0),
                       self.history_cap())
        columns = zip(sampled, run.cores[rows].tolist(),
                      run.arrivals[rows].tolist(), served[rows].tolist(),
                      run.starts[rows].tolist(), h.tolist())
        for i, core, now, is_served, start, depth in columns:
            if self.tracer.enabled:
                self.tracer.emit(EV_SPRAY, ts_ns=now, core=core, seq=i + 1,
                                 index=i)
            if is_served:
                self._record_service(True, i, core, start, depth)

    def service_ns(self, core: int, pp: PerfPacket, start_ns: float) -> float:
        c = self.costs
        counters = self.counters.cores[core]
        extra = self.extra_compute_ns
        if not pp.valid:
            counters.charge_packet(dispatch_ns=c.d, compute_ns=c.c1 + extra, state_accesses=0)
            return c.d + c.c1 + extra
        h = self._history_items()
        history = h * (c.c2 + extra)
        compute = (c.c1 + extra) + history
        spans = self.spans
        pp_sampled = spans.enabled and spans.sampled(pp.index)
        if self.tracer.enabled or pp_sampled:
            self._record_service(pp_sampled, pp.index, core, start_ns, h)
        # Every core holds every flow, so spill is judged against the full
        # (replicated) working set.
        miss_frac, spill = self.l2.access(core, pp.key)
        log_ns = 0.0
        recovery_transfer_ns = 0.0
        recovery_misses = 0.0
        if self.with_recovery:
            # Logging the h history items plus the packet's own entry.
            log_ns = (h + 1) * self.contention.log_write_ns
        gap = self._fault_gap[core]
        if gap:
            hp = self.hostprof
            hp_t0 = hp.now() if hp.enabled else 0
            self._fault_gap[core] = 0
            self.fault_gaps += 1
            # Round-robin spraying turns ``gap`` stolen packets into
            # (gap+1)*k - 1 sequences the replica must account for.
            missed = (gap + 1) * self.num_cores - 1
            if missed <= self.num_slots:
                # A widened history window (num_slots > k) still covers
                # the hole: extra fast-forward items beyond the natural h.
                self.fault_gaps_covered += 1
                catchup = (missed - h) * (c.c2 + extra)
                if self.tracer.enabled:
                    self.tracer.emit(EV_FAST_FORWARD, ts_ns=start_ns,
                                     core=core, length=missed - h)
            elif self.with_recovery:
                # Algorithm 1 (App. B): read each lost sequence from
                # another core's log (a cross-core transfer per probe)
                # and fast-forward through it.
                probes = 1 + (self.num_cores - 1) / 2
                recovery_transfer_ns = gap * probes * self.contention.recovery_probe_ns
                recovery_misses = float(gap)
                catchup = gap * (c.c2 + extra)
                if self.tracer.enabled:
                    self.tracer.emit(EV_FAST_FORWARD, ts_ns=start_ns,
                                     core=core, length=gap)
            else:
                # Quarantine: fetch the sequencer's newest epoch
                # checkpoint and replay, on average, half an epoch of
                # logged metadata on top of the missed sequences.
                self.quarantines += 1
                self.resyncs += 1
                replay = missed + self.fault_epoch_len // 2
                catchup = replay * (c.c2 + extra)
                fetch = self.contention.checkpoint_fetch_ns
                recovery_transfer_ns = fetch
                recovery_misses = 1.0  # the restored snapshot is cold
                self.resync_replayed += replay
                self.resync_ns_total += catchup + fetch
                if self.tracer.enabled:
                    self.tracer.emit(EV_QUARANTINE, ts_ns=start_ns,
                                     core=core, gap=gap, missed=missed)
                    self.tracer.emit(EV_RESYNC, ts_ns=start_ns, core=core,
                                     dur_ns=catchup + fetch, replayed=replay)
                if pp_sampled:
                    spans.emit("quarantine", pp.index, ts_ns=start_ns,
                               core=core, gap=gap, missed=missed)
                    spans.emit("checkpoint_fetch", pp.index, ts_ns=start_ns,
                               dur_ns=fetch, core=core)
                    spans.emit("replay", pp.index, ts_ns=start_ns + fetch,
                               dur_ns=catchup, core=core, replayed=replay)
                    spans.emit("resync", pp.index,
                               ts_ns=start_ns + fetch + catchup, core=core)
            compute += catchup
            history += catchup
            if hp.enabled:
                # Wall cost of gap-recovery fast-forward/resync modeling
                # (steady-state history replay is pure arithmetic above).
                hp.charge("scr.history_ff", hp_t0)
        total = c.d + compute + spill + log_ns + recovery_transfer_ns
        counters.charge_packet(
            dispatch_ns=c.d,
            compute_ns=compute + spill + log_ns,
            transfer_ns=recovery_transfer_ns,
            state_accesses=1,
            l2_misses=miss_frac + recovery_misses,
            program_ns=compute + spill + log_ns + recovery_transfer_ns,
            history_ns=history,
        )
        return total

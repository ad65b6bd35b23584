"""End-to-end functional SCR engine: sequencer + k SCR-aware cores.

This layer runs real bytes through the whole SCR pipeline and is the
correctness oracle for the paper's central claim (Principles #1 and #2):
after any run, every core's private state replica is identical, and the
verdict stream matches a single-threaded execution of the same program —
with zero cross-core synchronization in the loss-free case, and with the
Algorithm 1 logs when a :class:`~repro.faults.spec.FaultSpec` drops packets
between the sequencer and the cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..faults.plan import FaultPlan
from ..faults.spec import FaultSpec
from ..packet import Packet
from ..programs.base import PacketProgram, Verdict
from ..state.maps import PerCoreStateMap, StateMap
from ..telemetry.events import EV_FAULT_DROP, NULL_TRACER, EventTracer
from ..traffic.trace import Trace
from .recovery import LossRecoveryManager
from .scr_aware import ScrCoreRuntime

__all__ = ["ScrRunResult", "ScrFunctionalEngine", "reference_run"]


@dataclass
class ScrRunResult:
    """Outcome of one functional SCR run."""

    #: verdict per sequence number, for packets that reached their core.
    verdicts: Dict[int, Verdict] = field(default_factory=dict)
    #: sequences dropped between sequencer and core (fault drops).
    lost_seqs: List[int] = field(default_factory=list)
    offered: int = 0
    #: per-core state snapshots at the end of the run.
    replica_snapshots: List[dict] = field(default_factory=list)
    #: cores still waiting on recovery when the trace ended.
    blocked_cores: List[int] = field(default_factory=list)
    recovered: int = 0
    skipped: int = 0
    #: sequences every core skipped (lost everywhere; atomicity preserved).
    skipped_seqs: frozenset = frozenset()

    @property
    def replicas_consistent(self) -> bool:
        """True when every *unblocked* core holds identical state.

        Blocked cores stopped mid-catch-up (the trace ended); Appendix B
        only promises consistency once every core keeps receiving packets.
        """
        snaps = [
            s
            for i, s in enumerate(self.replica_snapshots)
            if i not in set(self.blocked_cores)
        ]
        return all(s == snaps[0] for s in snaps[1:]) if snaps else True


class ScrFunctionalEngine:
    """Drives a trace through the sequencer and k replicated cores."""

    def __init__(
        self,
        program: PacketProgram,
        num_cores: int,
        num_slots: Optional[int] = None,
        dummy_eth: bool = True,
        with_recovery: bool = False,
        faults: Optional[FaultSpec] = None,
        state_capacity: int = 4096,
        tracer: EventTracer = NULL_TRACER,
    ) -> None:
        """``faults`` drops packets between the sequencer and their core
        wherever ``FaultPlan.drops(arrival_index)`` fires — the same
        decisions the performance simulator makes for the same spec.
        Only the drop schedule applies here; the other fault kinds are
        the chaos harness's (``repro.faults.harness``)."""
        self._plan = _drop_plan(faults, with_recovery)
        # Imported here: the sequencer package depends on repro.core for the
        # ring and packet format, so a top-level import would be circular.
        from ..sequencer.sequencer import PacketHistorySequencer

        self.program = program
        self.num_cores = num_cores
        self.sequencer = PacketHistorySequencer(
            program, num_cores, num_slots=num_slots, dummy_eth=dummy_eth
        )
        self.states = PerCoreStateMap(num_cores, capacity=state_capacity)
        self.recovery = (
            LossRecoveryManager(num_cores, window=self.sequencer.num_slots)
            if with_recovery
            else None
        )
        self.tracer = tracer
        self.cores = [
            ScrCoreRuntime(
                program,
                core_id=i,
                codec=self.sequencer.codec,
                state=self.states.replica(i),
                recovery=self.recovery,
                tracer=tracer,
            )
            for i in range(num_cores)
        ]

    def run(self, trace: Trace, flush: bool = True) -> ScrRunResult:
        """Process every packet of ``trace`` and return the run outcome.

        With ``flush`` (default), no-op packets are pushed through the
        sequencer afterwards so every core fast-forwards past the trace's
        tail — replication is only *eventually* consistent, and a core that
        did not receive the final packets catches up on its next arrival.
        Flush packets are not counted in ``offered`` or ``verdicts``.
        """
        result = ScrRunResult()
        for index, pkt in enumerate(trace):
            self._offer(index, pkt, result)
        if flush:
            self.flush(result)
        self._drain(result)
        result.replica_snapshots = self.states.snapshots()
        result.blocked_cores = [c.core_id for c in self.cores if c.blocked]
        if self.recovery is not None:
            result.recovered = self.recovery.recovered
            result.skipped = self.recovery.skipped
            result.skipped_seqs = frozenset(self.recovery.skipped_seqs)
        return result

    def flush(self, result: Optional[ScrRunResult] = None) -> None:
        """Send one no-op packet per core so all replicas reach the tail.

        The no-ops are non-IPv4 frames: every program's metadata extraction
        marks them invalid and its transition leaves state untouched, so
        they propagate history without perturbing any replica.  Flush
        deliveries bypass the fault plan — in a real deployment these are
        simply "the next packets to arrive".
        """
        sink = result if result is not None else ScrRunResult()
        flush_seqs = set()
        for _ in range(self.num_cores):
            noop = Packet()  # bare Ethernet frame, ethertype 0, not IPv4
            sp = self.sequencer.process(noop)
            flush_seqs.add(sp.seq)
            for seq, verdict in self.cores[sp.core].receive(sp.data):
                if seq not in flush_seqs:
                    sink.verdicts[seq] = verdict
            self._drain(sink, ignore_seqs=flush_seqs)

    def _offer(self, index: int, pkt: Packet, result: ScrRunResult) -> None:
        result.offered += 1
        sp = self.sequencer.process(pkt)
        if self._plan is not None and self._plan.drops(index):
            result.lost_seqs.append(sp.seq)
            if self.tracer.enabled:
                self.tracer.emit(EV_FAULT_DROP, core=sp.core, index=index,
                                 seq=sp.seq)
            return
        for seq, verdict in self.cores[sp.core].receive(sp.data):
            result.verdicts[seq] = verdict
        self._drain(result)

    def _drain(self, result: ScrRunResult, ignore_seqs=frozenset()) -> None:
        """Let blocked cores retry recovery until no one makes progress."""
        if self.recovery is None:
            return
        progressed = True
        while progressed:
            progressed = False
            for core in self.cores:
                if not (core.blocked or core.rx_backlog):
                    continue
                before = core.last_seq
                outcomes = core.pump()
                for seq, verdict in outcomes:
                    if seq not in ignore_seqs:
                        result.verdicts[seq] = verdict
                if core.last_seq != before or outcomes:
                    progressed = True


def _drop_plan(faults: Optional[FaultSpec], with_recovery: bool) -> Optional[FaultPlan]:
    """The plan deciding sequencer→core drops, or None for a clean run.

    Shared with :class:`~repro.core.threaded.ThreadedScrEngine`: without
    Algorithm 1's logs a dropped packet would fork its replica for good.
    """
    if faults is None or not faults.any_faults:
        return None
    if not with_recovery:
        raise ValueError("fault drops require with_recovery=True")
    return FaultPlan(faults)


def reference_run(
    program: PacketProgram, trace: Trace, state_capacity: int = 4096
) -> tuple:
    """Single-threaded reference semantics: (verdicts by seq, final state).

    Sequence numbers are 1-based arrival order, matching the sequencer's.
    """
    state = StateMap(capacity=state_capacity)
    verdicts: Dict[int, Verdict] = {}
    for i, pkt in enumerate(trace, start=1):
        verdicts[i] = program.process(state, pkt)
    return verdicts, state.snapshot()

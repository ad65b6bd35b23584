"""The functional chaos harness: inject → detect → recover, end to end.

One :func:`run_chaos` call drives a synthesized trace through the real
sequencer and ``k`` SCR-aware replicas (one
:class:`~repro.core.scr_aware.ScrCoreRuntime` per core, repairing gaps
through a :class:`~repro.core.scr_aware.GapRepair`) while a
:class:`FaultPlan` breaks the delivery path, and answers three questions
with real bytes:

* **was every injected history gap detected?**  Sequence numbers on the
  piggybacked history make drops and truncations observable (a hole
  past the round-robin stagger, a zeroed row for a needed sequence);
* **what divergence did the faults cause?**  A DivergenceMonitor compares
  each replica's digest against the fault-free golden digest *at that
  replica's own sequence point* every N packets;
* **did recovery restore equality?**  With the epoch checkpointer,
  quarantined replicas resynchronize and the final digests must equal
  the golden run; without it, replicas fork silently — the behavior
  this subsystem exists to make visible.

The harness is deterministic end to end: trace synthesis, the fault
schedule, and recovery are all pure functions of the specs and seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.scr_aware import GapRepair, ScrCoreRuntime
from ..packet import Packet
from ..programs.base import PacketProgram, Verdict
from ..programs.registry import make_program
from ..scenario.build import build_trace
from ..scenario.spec import TraceSpec
from ..sequencer.sequencer import PacketHistorySequencer
from ..state.maps import StateMap
from ..telemetry.events import (
    EV_FAULT_DROP,
    EV_FAULT_DUPLICATE,
    EV_FAULT_KILL,
    EV_FAULT_POP_DROP,
    EV_FAULT_REORDER,
    EV_FAULT_TRUNCATE,
    NULL_TRACER,
    EventTracer,
)
from ..traffic.trace import Trace
from .digest import state_digest
from .inject import SequencerFaults
from .monitor import DivergenceMonitor
from .plan import FaultPlan
from .recovery import EpochCheckpointer
from .spec import FaultSpec

__all__ = ["ChaosOutcome", "run_chaos"]


class _ReferenceOracle:
    """Single-threaded reference run, queryable at any sequence prefix.

    Advances lazily and caches the state digest after every sequence, so
    staggered replicas can each be compared against the golden state at
    their own ``last_seq``.
    """

    def __init__(
        self, program: PacketProgram, packets: List[Packet], state_capacity: int
    ) -> None:
        self.program = program
        self._packets = packets
        self._state = StateMap(capacity=state_capacity)
        self._cursor = 0
        self._digests: Dict[int, str] = {0: state_digest({})}
        self.verdicts: Dict[int, Verdict] = {}

    def digest_at(self, seq: int) -> str:
        """Golden digest after the first ``seq`` packets (1-based seqs)."""
        if seq > len(self._packets):
            # Flush no-ops never touch state; the tail digest applies.
            seq = len(self._packets)
        while self._cursor < seq:
            pkt = self._packets[self._cursor]
            self._cursor += 1
            self.verdicts[self._cursor] = self.program.process(self._state, pkt)
            self._digests[self._cursor] = state_digest(self._state.snapshot())
        return self._digests[seq]


@dataclass
class ChaosOutcome:
    """Everything one chaos run measured, JSON-safe via :meth:`to_dict`."""

    program: str
    num_cores: int
    offered: int
    recovery_enabled: bool
    injected: Dict[str, int] = field(default_factory=dict)
    gap_events: int = 0
    gap_events_detected: int = 0
    gaps_covered: int = 0
    quarantines: int = 0
    resyncs: int = 0
    replayed_total: int = 0
    resync_replays: List[int] = field(default_factory=list)
    unrecoverable_cores: List[int] = field(default_factory=list)
    killed_cores: List[int] = field(default_factory=list)
    suspect_cores: List[int] = field(default_factory=list)
    stale_ignored: int = 0
    verdicts_checked: int = 0
    verdict_mismatches: int = 0
    divergence: Dict[str, object] = field(default_factory=dict)
    golden_digest: str = ""
    final_digests: List[str] = field(default_factory=list)
    live_cores: List[int] = field(default_factory=list)
    #: every live replica's final digest equals the fault-free golden run.
    digest_equal: bool = True
    #: live replicas whose state forked without *any* fault signal firing.
    undetected_divergences: int = 0

    @property
    def detected_all_gaps(self) -> bool:
        return self.gap_events_detected == self.gap_events

    @property
    def mean_resync_replay(self) -> float:
        if not self.resync_replays:
            return 0.0
        return sum(self.resync_replays) / len(self.resync_replays)

    def to_dict(self) -> Dict[str, object]:
        return {
            "program": self.program,
            "num_cores": self.num_cores,
            "offered": self.offered,
            "recovery_enabled": self.recovery_enabled,
            "injected": dict(self.injected),
            "gap_events": self.gap_events,
            "gap_events_detected": self.gap_events_detected,
            "detected_all_gaps": self.detected_all_gaps,
            "gaps_covered": self.gaps_covered,
            "quarantines": self.quarantines,
            "resyncs": self.resyncs,
            "replayed_total": self.replayed_total,
            "mean_resync_replay": self.mean_resync_replay,
            "unrecoverable_cores": list(self.unrecoverable_cores),
            "killed_cores": list(self.killed_cores),
            "suspect_cores": list(self.suspect_cores),
            "stale_ignored": self.stale_ignored,
            "verdicts_checked": self.verdicts_checked,
            "verdict_mismatches": self.verdict_mismatches,
            "divergence": dict(self.divergence),
            "digest_equal": self.digest_equal,
            "undetected_divergences": self.undetected_divergences,
        }


def run_chaos(
    program_name: str,
    spec: FaultSpec,
    *,
    num_cores: int = 4,
    workload: str = "univ_dc",
    num_flows: int = 30,
    max_packets: int = 1000,
    trace_seed: int = 7,
    num_slots: Optional[int] = None,
    recovery: bool = True,
    state_capacity: int = 4096,
    tracer: EventTracer = NULL_TRACER,
) -> ChaosOutcome:
    """Run one program under one fault spec and measure the outcome.

    ``recovery=False`` disables the epoch-checkpoint protocol: gaps are
    still *detected* (sequence numbers and zero-row checks work either
    way), but replicas fork instead of resynchronizing — the baseline
    that quantifies what the recovery protocol buys.
    """
    program = make_program(program_name)
    trace: Trace = build_trace(TraceSpec(
        workload=workload,
        num_flows=num_flows,
        max_packets=max_packets,
        seed=trace_seed,
        bidirectional=bool(program.bidirectional),
        packet_size=None,
    ))
    packets = list(trace)
    plan = FaultPlan(spec)
    seq_faults = SequencerFaults(plan, meta_size=program.metadata_size)
    sequencer = PacketHistorySequencer(
        program, num_cores, num_slots=num_slots, faults=seq_faults
    )
    checkpointer = (
        EpochCheckpointer(
            program,
            epoch_len=spec.epoch_len,
            log_capacity=spec.history_log_capacity,
            state_capacity=state_capacity,
        )
        if recovery
        else None
    )
    monitor = DivergenceMonitor(spec.digest_interval, tracer=tracer)
    oracle = _ReferenceOracle(program, packets, state_capacity)
    repair = GapRepair(num_cores, checkpointer)
    cores = [
        ScrCoreRuntime(
            program, core_id=i, codec=sequencer.codec,
            state=StateMap(capacity=state_capacity), tracer=tracer,
            repair=repair,
        )
        for i in range(num_cores)
    ]
    killed = [False] * num_cores

    counts = {
        "drops": 0, "pop_drops": 0, "duplicates": 0, "reorders": 0,
        "truncations": 0, "rows_zeroed": 0, "kills": 0,
    }
    #: injected-but-unhealed events per core (drops since last delivery).
    expected_gap = [0] * num_cores
    #: reordering hold-back: [remaining deliveries, data] per core.
    held: List[List[List[object]]] = [[] for _ in range(num_cores)]
    verdicts: Dict[int, Verdict] = {}
    flush_seqs: set = set()
    out = ChaosOutcome(
        program=program_name, num_cores=num_cores, offered=len(packets),
        recovery_enabled=recovery,
    )

    def dead(core_id: int) -> bool:
        return killed[core_id] or cores[core_id].unrecoverable

    def receive(core_id: int, data: bytes) -> None:
        """Hand one frame to a replica; fold it into the gap accounting."""
        if dead(core_id):
            return
        core = cores[core_id]
        stale, detected, covered = (
            core.stale_ignored, core.gaps_detected, core.gaps_covered
        )
        outcomes = core.receive(data)
        if core.stale_ignored > stale:
            return
        # The window could not heal the gap: past it, or a zeroed row.
        lost_history = (core.gaps_detected - detected
                        > core.gaps_covered - covered)
        fault_pending = expected_gap[core_id] > 0
        expected_gap[core_id] = 0
        if fault_pending or lost_history:
            out.gap_events += 1
            if core.gaps_detected > detected:
                out.gap_events_detected += 1
        for seq, verdict in outcomes:
            if seq not in flush_seqs:
                verdicts[seq] = verdict

    def deliver(core_id: int, data: bytes) -> None:
        receive(core_id, data)
        # A delivery ages every held-back frame for this core; release
        # the ones whose displacement has elapsed, in hold order.
        pending = held[core_id]
        for entry in pending:
            entry[0] = int(entry[0]) - 1  # type: ignore[call-overload]
        while pending and int(pending[0][0]) <= 0:  # type: ignore[arg-type]
            _, data2 = pending.pop(0)
            deliver(core_id, bytes(data2))  # type: ignore[arg-type]

    for i, pkt in enumerate(packets):
        sp = sequencer.process(pkt)
        if checkpointer is not None:
            checkpointer.record(sp.seq, program.extract_metadata(pkt).pack())
        if sp.truncated_seqs:
            counts["truncations"] += 1
            counts["rows_zeroed"] += len(sp.truncated_seqs)
            if tracer.enabled:
                tracer.emit(EV_FAULT_TRUNCATE, seq=sp.seq,
                            lost=list(sp.truncated_seqs))
        core_id = sp.core
        kill_at = plan.kill_index(core_id)
        if not killed[core_id] and kill_at is not None and i >= kill_at:
            killed[core_id] = True
            counts["kills"] += 1
            if tracer.enabled:
                tracer.emit(EV_FAULT_KILL, core=core_id, index=i)
        if plan.drops(i):
            counts["drops"] += 1
            expected_gap[core_id] += 1
            if tracer.enabled:
                tracer.emit(EV_FAULT_DROP, core=core_id, index=i, seq=sp.seq)
        elif plan.pop_drops(i):
            counts["pop_drops"] += 1
            expected_gap[core_id] += 1
            if tracer.enabled:
                tracer.emit(EV_FAULT_POP_DROP, core=core_id, index=i,
                            seq=sp.seq)
        else:
            offset = plan.reorder_offset(i)
            if offset > 0:
                counts["reorders"] += 1
                held[core_id].append([offset, sp.data])
                if tracer.enabled:
                    tracer.emit(EV_FAULT_REORDER, core=core_id, index=i,
                                seq=sp.seq, offset=offset)
            else:
                deliver(core_id, sp.data)
            if plan.duplicates(i):
                counts["duplicates"] += 1
                if tracer.enabled:
                    tracer.emit(EV_FAULT_DUPLICATE, core=core_id, index=i,
                                seq=sp.seq)
                deliver(core_id, sp.data)
        if monitor.due(i):
            live = [not dead(c) for c in range(num_cores)]
            digests = [state_digest(c.state.snapshot()) for c in cores]
            expected = [oracle.digest_at(c.last_seq) for c in cores]
            monitor.observe(i, digests, live=live, expected=expected)

    # Release every held-back frame (late is better than never), then
    # flush: one no-op per core so every live replica reaches the tail,
    # exactly as ScrFunctionalEngine.flush does.  Faults never fire on
    # the flush round — these model "the next packets to arrive".
    for core_id in range(num_cores):
        pending = held[core_id]
        held[core_id] = []
        for entry in pending:
            receive(core_id, bytes(entry[1]))  # type: ignore[arg-type]
    for core in cores:
        core.flush_from = sequencer.next_seq
    sequencer.faults = None
    for _ in range(num_cores):
        noop = Packet()  # bare Ethernet frame, not IPv4: a metadata no-op
        sp = sequencer.process(noop)
        flush_seqs.add(sp.seq)
        if checkpointer is not None:
            checkpointer.record(sp.seq, program.extract_metadata(noop).pack())
        deliver(sp.core, sp.data)

    # -- final accounting ------------------------------------------------------
    total = len(packets)
    golden = oracle.digest_at(total)
    final_digests = [state_digest(c.state.snapshot()) for c in cores]
    live = [i for i in range(num_cores) if not dead(i)]
    out.injected = counts
    out.gaps_covered = sum(c.gaps_covered for c in cores)
    out.quarantines = sum(c.quarantines for c in cores)
    out.resync_replays = [r for c in cores for r in c.resync_replays]
    out.resyncs = len(out.resync_replays)
    out.replayed_total = sum(out.resync_replays)
    out.unrecoverable_cores = [i for i, c in enumerate(cores) if c.unrecoverable]
    out.killed_cores = [i for i in range(num_cores) if killed[i]]
    out.suspect_cores = [i for i, c in enumerate(cores) if c.forks]
    out.stale_ignored = sum(c.stale_ignored for c in cores)
    out.verdicts_checked = len(verdicts)
    out.verdict_mismatches = sum(
        1 for seq, v in verdicts.items() if oracle.verdicts.get(seq) != v
    )
    out.divergence = monitor.report().to_dict()
    out.golden_digest = golden
    out.final_digests = final_digests
    out.live_cores = live
    out.digest_equal = all(final_digests[i] == golden for i in live)
    out.undetected_divergences = sum(
        1
        for i in live
        if final_digests[i] != golden
        and not cores[i].gaps_detected
        and i not in monitor.flagged_cores
    )
    return out

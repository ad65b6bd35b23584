"""The SCR-aware program runtime — the App. C transformation, generically.

App. C walks through hand-transforming an XDP program for SCR: (1) replicate
the state per core, (2) define per-packet metadata, (3) prepend a fast-forward
loop over the piggybacked history, then process the current packet with the
original, unmodified logic.  Because every program in this repo already
factors into ``extract_metadata`` / ``key`` / ``transition``
(:class:`~repro.programs.base.PacketProgram`), the transformation is done
once here for all programs — the "suitable compiler pass" the paper
anticipates.

:class:`ScrCoreRuntime` is one core's half: it decodes SCR packets, skips
history it has already applied, fast-forwards its private replica, and only
then computes a verdict for the current packet.  Historic packets never get
verdicts (App. C).  With a :class:`~repro.core.recovery.LossRecoveryManager`
attached, gaps are resolved through the per-core logs of Algorithm 1; while
a recovery walk waits on another core's log, further arrivals are buffered
in the core's RX queue, exactly as a real NIC ring would hold them.

Without a manager the core heals gaps from the carried history window
alone, and sequence numbers make faults on that path visible (§3.2,
App. B): a frame at or below ``last_seq`` is a duplicate or a late
reordered frame and is ignored.  By default the path is taken to be
loss-free (§3.4's NIC-resident sequencer), so a gap reaching past the
window raises.  With a :class:`GapRepair` the core also checks for
needed rows that arrived zeroed (truncated), counts gaps past the
round-robin stagger that the window still heals, and meets a gap it
cannot heal by quarantine plus epoch-checkpoint resync, or by detecting
it and forking.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..faults.recovery import EpochCheckpointer
from ..packet import Packet
from ..programs.base import PacketProgram, Verdict
from ..state.maps import StateMap
from ..telemetry.events import (
    EV_FAST_FORWARD,
    EV_GAP_DETECTED,
    EV_HISTORY_DEPTH,
    EV_QUARANTINE,
    EV_RECOVERY_BLOCKED,
    EV_RECOVERY_FINISH,
    EV_RECOVERY_START,
    EV_RESYNC,
    EV_UNRECOVERABLE,
    NULL_TRACER,
    EventTracer,
)
from .packet_format import ScrPacketCodec
from .recovery import LossRecoveryManager

__all__ = ["GapRepair", "ScrCoreRuntime"]

#: (sequence number, verdict) for a processed current packet.
Outcome = Tuple[int, Verdict]


@dataclass(frozen=True)
class GapRepair:
    """How a window-path core treats gaps on a path that can lose frames.

    ``num_cores`` fixes the round-robin stagger: a fault-free core skips
    exactly ``num_cores - 1`` sequences between its own packets, so a
    larger gap is fault evidence even when the window heals it.  A gap
    the window cannot heal quarantines the replica and resyncs it from
    ``checkpointer``; without one the core applies what survived and
    forks — detected, but not repaired.
    """

    num_cores: int
    checkpointer: Optional[EpochCheckpointer] = None


class ScrCoreRuntime:
    """One CPU core running the SCR-aware variant of ``program``."""

    def __init__(
        self,
        program: PacketProgram,
        core_id: int,
        codec: ScrPacketCodec,
        state: StateMap,
        recovery: Optional[LossRecoveryManager] = None,
        tracer: EventTracer = NULL_TRACER,
        repair: Optional[GapRepair] = None,
    ) -> None:
        self.program = program
        self.core_id = core_id
        self.codec = codec
        self.state = state
        self.recovery = recovery
        #: window-path gap handling; None raises on an unhealable gap.
        self.repair = repair
        #: telemetry event sink; the default disabled tracer is free.
        self.tracer = tracer
        #: True while a catch-up that needed peer logs is in flight.
        self._recovery_round = False
        self._round_recovered0 = 0
        #: highest sequence fully applied to the private replica.
        self.last_seq = 0
        self._rx_queue: Deque[bytes] = deque()
        #: the current packet awaiting its verdict while recovery catches up.
        self._pending_packet: Optional[Packet] = None
        self._pending_seq = 0
        self.packets_processed = 0
        self.history_applied = 0
        self.recovered_applied = 0
        # Window-path fault accounting (see GapRepair).
        #: first tail-flush no-op sequence, once the feeder starts flushing:
        #: zeroed rows from here on are no-ops, not truncation.
        self.flush_from: Optional[int] = None
        self.stale_ignored = 0
        self.gaps_covered = 0
        self.quarantines = 0
        self.forks = 0
        #: log entries each successful resync replayed.
        self.resync_replays: List[int] = []
        #: a resync found its replay log evicted; the core takes no more frames.
        self.unrecoverable = False

    # -- receive path -----------------------------------------------------------

    def receive(self, scr_bytes: bytes) -> List[Outcome]:
        """Handle one SCR packet from the sequencer.

        Returns the (sequence, verdict) outcomes that completed — usually
        one, none while blocked on recovery, several when this arrival
        unblocks queued packets.
        """
        self._rx_queue.append(scr_bytes)
        return self.pump()

    def pump(self) -> List[Outcome]:
        """Make all possible progress: resume walks, drain the RX queue."""
        outcomes: List[Outcome] = []
        while True:
            if self._pending_packet is not None:
                before = self.last_seq
                outcome = self._advance_walk()
                if outcome is not None:
                    outcomes.append(outcome)
                if self._pending_packet is not None:
                    # Still blocked; stop unless the walk moved at all (in
                    # which case one more probe round costs nothing).
                    if self.last_seq == before:
                        break
                    continue
                continue
            if not self._rx_queue:
                break
            outcome = self._start(self._rx_queue.popleft())
            if outcome is not None:
                outcomes.append(outcome)
        return outcomes

    # -- starting one packet ------------------------------------------------------

    def _start(self, scr_bytes: bytes) -> Optional[Outcome]:
        header, rows, original = self.codec.decode(scr_bytes)
        j = header.seq
        pkt = Packet.from_bytes(original, timestamp_ns=header.timestamp_ns)

        if self.recovery is None:
            return self._process_window(j, rows, pkt)

        # Build the seq → metadata map this packet carries: ring rows hold
        # sequences j-N .. j-1 oldest-first; recovery's window uses
        # j-N+1 .. j-1 from the rows plus the current packet's own metadata.
        n = self.codec.num_slots
        metas: Dict[int, bytes] = {}
        for m in range(1, n):
            s = j - n + m
            if s >= 1:
                metas[s] = rows[m]
        metas[j] = self.program.extract_metadata(pkt).pack()
        self.recovery.deliver(self.core_id, j, metas)
        self._pending_packet = pkt
        self._pending_seq = j
        if self.tracer.enabled:
            # A recovery *round* means the gap reaches past the carried
            # history, so Algorithm 1 must consult peer logs.
            minseq = max(1, j - (n - 1))
            if self.last_seq + 1 < minseq:
                self._recovery_round = True
                self._round_recovered0 = self.recovered_applied
                self.tracer.emit(EV_RECOVERY_START, core=self.core_id, seq=j,
                                 gap=minseq - self.last_seq - 1)
        return self._advance_walk()

    def _process_window(
        self, j: int, rows: List[bytes], pkt: Packet
    ) -> Optional[Outcome]:
        """Heal the gap from the carried history, then process (App. C)."""
        if self.unrecoverable:
            return None
        if j <= self.last_seq:
            # A duplicate or a late reordered frame: nothing in it is new.
            self.stale_ignored += 1
            return None
        gap_start = self.last_seq + 1
        # Row m holds sequence j - n + m, so the window reaches back to j - n.
        first = max(gap_start, j - self.codec.num_slots, 1)
        missing = first - gap_start
        repair = self.repair
        zeroed = 0 if repair is None else self._zeroed_rows(j, rows, first)
        if not (missing or zeroed):
            self._fast_forward(j, rows, first)
            if repair is not None and j - gap_start > repair.num_cores - 1:
                # Past the round-robin stagger, yet the window healed it
                # (the §3.1 design).
                self.gaps_covered += 1
                if self.tracer.enabled:
                    self.tracer.emit(EV_FAST_FORWARD, core=self.core_id,
                                     seq=j, length=j - gap_start)
        elif repair is None:
            raise RuntimeError(
                f"core {self.core_id}: gap {gap_start}..{j - 1} exceeds the "
                f"{self.codec.num_slots} history slots; enable loss recovery"
            )
        elif repair.checkpointer is not None:
            if not self._resync(repair.checkpointer, j, missing, zeroed):
                return None
        else:
            self.forks += 1
            self._fast_forward(j, rows, first)
            if self.tracer.enabled:
                self.tracer.emit(EV_GAP_DETECTED, core=self.core_id, seq=j,
                                 missing=missing, invalid_rows=zeroed)
        verdict = self.program.process(self.state, pkt)
        self.last_seq = j
        self.packets_processed += 1
        return j, verdict

    def _fast_forward(self, j: int, rows: List[bytes], first: int) -> None:
        """Apply history sequences ``first .. j-1`` (the App. C loop).

        A zeroed row unpacks to the invalid metadata every transition
        ignores (the flush no-op), so applying one changes nothing.
        """
        offset = self.codec.num_slots - j
        for s in range(first, j):
            meta = self.program.metadata_cls.unpack(rows[s + offset])
            self.program.fast_forward(self.state, meta)
        applied = j - first
        self.history_applied += applied
        if applied and self.tracer.enabled:
            self.tracer.emit(EV_HISTORY_DEPTH, core=self.core_id, seq=j,
                             depth=applied)

    def _zeroed_rows(self, j: int, rows: List[bytes], first: int) -> int:
        """Needed rows that arrived zeroed (truncated), flush no-ops aside."""
        zero = bytes(self.codec.meta_size)
        if not zero:
            return 0  # 0-byte metadata carries nothing to lose
        end = j if self.flush_from is None else min(j, self.flush_from)
        offset = self.codec.num_slots - j
        return sum(1 for s in range(first, end) if rows[s + offset] == zero)

    def _resync(
        self, checkpointer: EpochCheckpointer, j: int, missing: int,
        zeroed: int,
    ) -> bool:
        """Quarantine, then rebuild the replica at ``j - 1``; False if dead."""
        self.quarantines += 1
        if self.tracer.enabled:
            self.tracer.emit(EV_QUARANTINE, core=self.core_id, seq=j,
                             missing=missing, invalid_rows=zeroed)
        outcome = checkpointer.resync(self.state, j - 1)
        if outcome.unrecoverable:
            self.unrecoverable = True
            if self.tracer.enabled:
                self.tracer.emit(EV_UNRECOVERABLE, core=self.core_id, seq=j)
            return False
        self.resync_replays.append(outcome.replayed)
        if self.tracer.enabled:
            self.tracer.emit(EV_RESYNC, core=self.core_id, seq=j,
                             checkpoint_seq=outcome.checkpoint_seq,
                             replayed=outcome.replayed)
        return True

    # -- recovery-driven progression --------------------------------------------

    def _advance_walk(self) -> Optional[Outcome]:
        """Resume a recovery walk; returns an outcome when it completes."""
        if self.recovery is None or self._pending_packet is None:
            return None
        entries, done = self.recovery.try_advance(self.core_id)
        result: Optional[Outcome] = None
        minseq = self._pending_seq - (self.codec.num_slots - 1)
        for seq, meta_bytes in entries:
            if seq == self._pending_seq:
                verdict = self.program.process(self.state, self._pending_packet)
                self.packets_processed += 1
                self.last_seq = seq
                result = (seq, verdict)
                continue
            if meta_bytes is None:
                # Lost at every core: atomicity says nobody applies it.
                self.last_seq = seq
                continue
            meta = self.program.metadata_cls.unpack(meta_bytes)
            self.program.fast_forward(self.state, meta)
            self.history_applied += 1
            if seq < minseq:
                self.recovered_applied += 1
            self.last_seq = seq
        if done:
            if self._recovery_round and self.tracer.enabled:
                self.tracer.emit(
                    EV_RECOVERY_FINISH,
                    core=self.core_id,
                    seq=self._pending_seq or self.last_seq,
                    recovered=self.recovered_applied - self._round_recovered0,
                )
            self._recovery_round = False
            self._pending_packet = None
            self._pending_seq = 0
        elif self.tracer.enabled:
            self.tracer.emit(EV_RECOVERY_BLOCKED, core=self.core_id,
                             seq=self._pending_seq, at=self.last_seq + 1)
        return result

    @property
    def gaps_detected(self) -> int:
        """Window-path gaps flagged as faults: covered, quarantined or forked."""
        return self.gaps_covered + self.quarantines + self.forks

    @property
    def blocked(self) -> bool:
        """True while a recovery walk is waiting on other cores' logs."""
        return self._pending_packet is not None

    @property
    def rx_backlog(self) -> int:
        return len(self._rx_queue)

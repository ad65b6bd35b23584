"""SCR on real threads: one OS thread per replicated core.

The single-threaded :class:`~repro.core.engine.ScrFunctionalEngine`
interleaves cores deterministically; this engine runs each core on its own
``threading.Thread`` with a bounded queue standing in for the RX ring, so
the claims face *real* concurrency:

* zero cross-core synchronization on the data path — each core touches
  only its private replica and (with recovery) its own log slots, reading
  peers' logs without locks, exactly the single-writer/multi-reader
  discipline of §3.4;
* interleaving-independence — whatever the scheduler does, every replica
  must converge to the single-threaded reference state.

Python's GIL serializes bytecode so this brings no speedup (the
performance story lives in ``repro.cpu``); what it brings is a genuinely
nondeterministic schedule for the correctness claims to survive.
"""

from __future__ import annotations

import queue
import threading
from typing import Dict, Optional

from ..faults.spec import FaultSpec
from ..programs.base import PacketProgram, Verdict
from ..state.maps import PerCoreStateMap
from ..telemetry.events import NULL_TRACER, EventTracer
from ..traffic.trace import Trace
from .engine import ScrRunResult, _drop_plan
from .recovery import LossRecoveryManager
from .scr_aware import ScrCoreRuntime

__all__ = ["ThreadedScrEngine"]

_STOP = object()


class _CoreThread(threading.Thread):
    """One replicated core: drains its queue, records outcomes locally."""

    def __init__(self, runtime: ScrCoreRuntime, ring_capacity: int):
        super().__init__(name=f"scr-core-{runtime.core_id}", daemon=True)
        self.runtime = runtime
        self.rx = queue.Queue(maxsize=ring_capacity)
        #: single-writer results, read by the main thread after join().
        self.verdicts: Dict[int, Verdict] = {}
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            while True:
                item = self.rx.get()
                if item is _STOP:
                    break
                for seq, verdict in self.runtime.receive(item):
                    self.verdicts[seq] = verdict
            # Trace over: finish any in-flight recovery walk.  Peers keep
            # draining their queues, so per Appendix B this terminates.
            import time

            while self.runtime.blocked or self.runtime.rx_backlog:
                outcomes = self.runtime.pump()
                for seq, verdict in outcomes:
                    self.verdicts[seq] = verdict
                if not outcomes:
                    time.sleep(0.0001)  # yield while waiting on peer logs
        except BaseException as exc:  # surfaced by the engine after join
            self.error = exc


class ThreadedScrEngine:
    """Drives a trace through the sequencer into per-core threads."""

    def __init__(
        self,
        program: PacketProgram,
        num_cores: int,
        num_slots: Optional[int] = None,
        dummy_eth: bool = True,
        with_recovery: bool = False,
        faults: Optional[FaultSpec] = None,
        state_capacity: int = 4096,
        ring_capacity: int = 256,
        tracer: EventTracer = NULL_TRACER,
    ) -> None:
        from ..sequencer.sequencer import PacketHistorySequencer

        self._plan = _drop_plan(faults, with_recovery)
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
        self._ring_capacity = ring_capacity
        #: event sink shared by every core thread (deque appends are safe
        #: under the GIL; counts may rarely under-report across threads).
        self.tracer = tracer

    @staticmethod
    def _put(thread: _CoreThread, data: bytes) -> None:
        """Backpressured enqueue that notices a dead core instead of hanging."""
        while True:
            if thread.error is not None:
                raise thread.error
            try:
                thread.rx.put(data, timeout=1.0)
                return
            except queue.Full:
                continue

    def run(self, trace: Trace, flush: bool = True) -> ScrRunResult:
        """Process ``trace`` with one thread per core; joins before returning."""
        from ..packet import Packet

        threads = [
            _CoreThread(
                ScrCoreRuntime(
                    self.program,
                    core_id=i,
                    codec=self.sequencer.codec,
                    state=self.states.replica(i),
                    recovery=self.recovery,
                    tracer=self.tracer,
                ),
                ring_capacity=self._ring_capacity,
            )
            for i in range(self.num_cores)
        ]
        for t in threads:
            t.start()

        result = ScrRunResult()
        flush_seqs = set()
        try:
            for index, pkt in enumerate(trace):
                result.offered += 1
                sp = self.sequencer.process(pkt)
                if self._plan is not None and self._plan.drops(index):
                    result.lost_seqs.append(sp.seq)
                    continue
                self._put(threads[sp.core], sp.data)
            if flush:
                # No-op packets propagate the tail to every replica; they
                # also guarantee each core receives something after any
                # loss, the Appendix B termination condition.
                for _ in range(self.num_cores):
                    sp = self.sequencer.process(Packet())
                    flush_seqs.add(sp.seq)
                    self._put(threads[sp.core], sp.data)
        finally:
            for t in threads:
                t.rx.put(_STOP)
            for t in threads:
                t.join(timeout=30)

        for t in threads:
            if t.error is not None:
                raise t.error
            if t.is_alive():
                raise RuntimeError(f"{t.name} failed to terminate")
            for seq, verdict in t.verdicts.items():
                if seq not in flush_seqs:
                    result.verdicts[seq] = verdict

        result.replica_snapshots = self.states.snapshots()
        result.blocked_cores = [
            t.runtime.core_id for t in threads if t.runtime.blocked
        ]
        if self.recovery is not None:
            result.recovered = self.recovery.recovered
            result.skipped = self.recovery.skipped
            result.skipped_seqs = frozenset(self.recovery.skipped_seqs)
        return result

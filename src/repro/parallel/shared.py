"""Shared-state engines: one state map, packets sprayed across all cores.

The §2.2 "shared state parallelism" baseline: packets are sprayed evenly
(round-robin), and every core reads/writes the same state entries, guarded
by either hardware atomics (counter programs) or eBPF spinlocks [10]
(everything else) — the split in Table 1's "Atomic HW vs. Locks" column.

The mechanisms that make this collapse under skew (§4.2):

* each update of a key is a serialization point — at most ``1/hold`` updates
  per second regardless of core count;
* the state cache line bounces between cores on nearly every access of a
  hot flow, stalling the accessor for an LLC round trip;
* under lock contention the hold itself inflates with the number of
  spinning cores stealing the lock line.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Callable, List, Tuple

import numpy as np

from ..cpu.locks import LineTable
from ..cpu.simulator import PerfPacket
from ..telemetry.events import EV_LOCK_WAIT, RecordBatch
from .base import BaseEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cpu.columnar import ColumnarRun
    from ..cpu.simulator import PerfTrace

__all__ = ["SharedAtomicEngine", "SharedLockEngine", "make_shared_engine"]


#: the serialization key standing in for program-global state (a NAT's
#: port pool): one entry contended by every packet that touches it.
_GLOBAL_KEY = object()

#: A valid packet's update of its key (:meth:`_SharedBase.packet_terms`):
#: ``(service, compute, wait, transfer, misses, program)`` ns / misses.
Terms = Tuple[float, float, float, float, float, float]


class _SharedBase(BaseEngine):
    """Round-robin spraying + shared-map bookkeeping."""

    #: the ``lock`` field of a key update's ``lock.wait`` record.
    lock_kind = "?"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rr = 0
        #: every key's line (its last writer and free time), the global
        #: entry's included.
        self.lines = LineTable()
        #: the global entry's hold when its line stayed (False) or
        #: bounced (True): the update runs under a lock that every core
        #: contends for once the line moves.
        self._global_hold = tuple(self.contention.lock_hold_ns(
            self.costs.c1 * 0.5, contenders) for contenders in (1, self.num_cores))
        #: a bounced line's read stall (one LLC round trip), indexed by
        #: ``bounced``.
        self._stall = (0.0, self.contention.line_transfer_ns)
        # Bound once: the term functions run once per packet.
        self._d, self._c1 = self.costs.d, self.costs.c1
        self._advance = self.lines.advance
        self._l2_access = self.l2.access

    def reset(self) -> None:
        super().reset()
        self._rr = 0
        self.lines.reset()

    def steer(self, pp: PerfPacket) -> int:
        core = self._rr
        self._rr = (self._rr + 1) % self.num_cores
        return core

    def packet_terms(self, core: int, key: object, start_ns: float) -> Terms:
        """One valid packet's update of ``key`` from ``core``, served from
        ``start_ns``: the key's line (its bounce, wait and hold, one
        :meth:`LineTable.advance`) and the L2 access.  Returns
        ``(service, compute, wait, transfer, misses, program)``, what
        ``charge_packet`` takes.  A bounced line counts one L2 miss: the
        line is dirty in another core's cache, whatever the capacity
        model says.  Both hot paths charge this one function, the scalar
        loop per packet and the columnar walk as columns."""
        raise NotImplementedError

    def global_terms(self, core: int, start_ns: float
                     ) -> Tuple[float, float, float, float]:
        """Serialize on the program's global entry for a packet that
        updates it after its own key (§2.2: e.g. a NAT's free-port list),
        from ``start_ns``: ``(stall, wait, misses, service)`` — the stall
        and wait it adds to the core's counters, its L2 misses (one
        access) and the ns it adds to the packet's service."""
        bounced, wait, hold = self._advance(core, _GLOBAL_KEY, start_ns,
                                            self._global_hold)
        read_stall = self._stall[bounced]
        return read_stall, wait, 1.0 if bounced else 0.0, read_stall + wait + hold

    def service_ns(self, core: int, pp: PerfPacket, start_ns: float) -> float:
        c = self.costs
        counters = self.counters.cores[core]
        if not pp.valid:
            counters.charge_packet(dispatch_ns=c.d, compute_ns=c.c1, state_accesses=0)
            return c.d + c.c1
        tracing = self.tracer.enabled
        service, compute, wait, transfer, misses, program = self.packet_terms(
            core, pp.key, start_ns)
        if wait > 0 and tracing:
            self.tracer.emit_sampled(
                self.spans.sampled(pp.index), EV_LOCK_WAIT, start_ns,
                core=core, dur_ns=wait, lock=self.lock_kind, index=pp.index)
        counters.charge_packet(
            dispatch_ns=c.d,
            compute_ns=compute,
            wait_ns=wait,
            transfer_ns=transfer,
            state_accesses=1,
            l2_misses=misses,
            program_ns=program,
        )
        if pp.touches_global:
            g_start = start_ns + service
            stall, wait, misses, g_service = self.global_terms(core, g_start)
            if wait > 0 and tracing:
                self.tracer.emit_sampled(
                    self.spans.sampled(pp.index), EV_LOCK_WAIT, g_start,
                    core=core, dur_ns=wait, lock="global", index=pp.index)
            counters.wait_ns += wait
            counters.transfer_ns += stall
            counters.l2_misses += misses
            counters.l2_accesses += 1
            service += g_service
        return service

    # -- columnar hot-path hooks (docs/HOTPATH.md) --------------------------------

    #: Keys, their serialization points and their lines are shared by
    #: every core: the columnar driver serves all cores in one walk.
    couples_cores = True

    def columnar_eligible(self, fault_drops: bool = False) -> bool:
        """Round-robin steering is row math, and the merged walk serves
        each packet through :meth:`packet_terms` in the loop's call
        order, where its wait and its bounce are decided.  A fault drop
        is just a lost packet: the shared map charges no gap."""
        return True

    def steer_batch(self, trace: "PerfTrace", rows: np.ndarray) -> np.ndarray:
        """Round-robin spraying: the i-th steered packet goes to
        ``(rr + i) % k`` (state advances in :meth:`commit_steer_batch`)."""
        offsets = np.arange(len(rows), dtype=np.int64)
        return (self._rr + offsets) % self.num_cores

    def commit_steer_batch(self, count: int) -> None:
        self._rr = (self._rr + count) % self.num_cores

    def coupled_walk(self, trace: "PerfTrace") -> "_SharedWalk":
        return _SharedWalk(self, trace)

    def record_committed(self, trace: "PerfTrace", run: "ColumnarRun",
                         sampled: np.ndarray) -> None:
        """The ``lock.wait`` records ``service_ns`` emits, for a committed
        columnar run, staged as one column batch: each update that waited
        (its key's, then the global entry's), kept for span-sampled
        packets and counted for the rest."""
        tracer = self.tracer
        if not tracer.enabled:
            return
        rows, ts, waits, on_global = run.walk.waits(run.starts)
        kept = np.flatnonzero(np.isin(rows, sampled))
        tracer.count(EV_LOCK_WAIT, len(rows) - len(kept))
        rows = rows[kept]
        lock = np.where(on_global[kept], "global", self.lock_kind)
        tracer.stage_columns(RecordBatch(
            EV_LOCK_WAIT, rows, ts[kept], run.cores[rows], waits[kept],
            fields=(("lock", lock), ("index", rows))))


class _SharedWalk:
    """A committed columnar run's updates, in the scalar loop's call
    order: the driver's merged walk calls :attr:`serve` at each pop, which
    runs the engine's term functions on its live models and records their
    results as columns; :meth:`commit` charges them."""

    def __init__(self, engine: _SharedBase, trace: "PerfTrace") -> None:
        self.engine = engine
        self.trace = trace
        #: each served row's :data:`Terms`, flat, in call order (raw
        #: doubles: a boxed float per term would outweigh the trace).
        self.terms = array("d")
        #: ``(row, start, stall, wait, misses)`` of each global update.
        self.globals: List[Tuple[int, float, float, float, float]] = []
        #: the served rows in call order, set by :meth:`commit`.
        self.rows = np.empty(0, dtype=np.int64)
        self.serve = self._server()

    def _server(self) -> Callable[[int, int, int, float], float]:
        engine, trace = self.engine, self.trace
        c = engine.costs
        table = trace.key_table
        keys = trace.key_ids.tolist()
        valid = trace.valid.tolist()
        touches_global = trace.touches_global.tolist()
        # An invalid packet's terms: dispatch and compute, no state.
        invalid: Terms = (c.d + c.c1, c.c1, 0.0, 0.0, 0.0, c.c1)
        record = self.terms.extend
        note_global = self.globals.append
        packet_terms = engine.packet_terms
        global_terms = engine.global_terms

        def serve(core: int, row: int, step: int, start: float) -> float:
            """Serve ``row`` on ``core`` from ``start``: its service."""
            if not valid[row]:
                record(invalid)
                return invalid[0]
            terms = packet_terms(core, table[keys[row]], start)
            record(terms)
            if not touches_global[row]:
                return terms[0]
            g_start = start + terms[0]
            stall, wait, misses, g_service = global_terms(core, g_start)
            note_global((row, g_start, stall, wait, misses))
            return terms[0] + g_service

        return serve

    def _columns(self) -> np.ndarray:
        return np.frombuffer(self.terms, dtype=np.float64).reshape(-1, 6)

    def _global_columns(self) -> np.ndarray:
        return np.array(self.globals, dtype=np.float64).reshape(-1, 5)

    def commit(self, rows: np.ndarray, cores: np.ndarray) -> None:
        """Charge the served ``rows`` (call order, on ``cores``) per core,
        each global update as one more wait, stall, access and miss right
        after its packet's own (the order ``service_ns`` adds them)."""
        self.rows = rows
        _, compute, wait, transfer, misses, program = self._columns().T
        g_rows, _, g_stall, g_wait, g_misses = self._global_columns().T
        position = np.empty(len(self.trace), dtype=np.int64)
        position[rows] = np.arange(len(rows))
        self.engine.charge_rows(
            cores, compute_ns=compute, wait_ns=wait, transfer_ns=transfer,
            state_accesses=self.trace.valid[rows].astype(np.int64),
            l2_misses=misses, program_ns=program,
            after=(position[g_rows.astype(np.int64)],
                   dict(wait_ns=g_wait, transfer_ns=g_stall,
                        state_accesses=1, l2_misses=g_misses)))

    def waits(self, starts: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Every update that waited, key updates first: its row, its
        start (the service's, or the global update's), its wait, and
        whether it was the global entry's."""
        wait = self._columns()[:, 2]
        g_rows, g_start, _, g_wait, _ = self._global_columns().T
        key, glob = wait > 0, g_wait > 0
        rows = self.rows[key]
        return (np.concatenate((rows, g_rows[glob].astype(np.int64))),
                np.concatenate((starts[rows], g_start[glob])),
                np.concatenate((wait[key], g_wait[glob])),
                np.arange(len(rows) + int(glob.sum())) >= len(rows))


class SharedAtomicEngine(_SharedBase):
    """Shared state updated with hardware atomic RMW instructions.

    Only valid for programs whose update is a single fetch-modify-write
    (Table 1); constructing it for a lock-requiring program raises.
    """

    name = "shared-atomic"
    lock_kind = "atomic"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.program.needs_locks:
            raise ValueError(
                f"{self.program.name} updates are too complex for hardware "
                "atomics (Table 1); use SharedLockEngine"
            )
        # A bounced line stalls twice: the initial load misses (the line is
        # dirty in another core's cache), and the RMW then needs the line
        # exclusively for a full cross-core transfer.  Uncontended updates
        # pay only the RMW instruction.  (Indexed by ``bounced``.)
        self._hold = (self.contention.atomic_ns, self.contention.atomic_hold_ns())
        #: the transfer an update charges: none, or the stall and the hold.
        self._transfer = (0.0, self._stall[1] + self._hold[1])

    def packet_terms(self, core: int, key: object, start_ns: float) -> Terms:
        d, c1 = self._d, self._c1
        # The RMW happens after dispatch + compute + the read stall.
        bounced, wait, hold = self._advance(core, key, start_ns + d + c1,
                                            self._hold, self._stall[1])
        read_stall = self._stall[bounced]
        miss_frac, spill = self._l2_access(core, key)
        return (
            d + c1 + read_stall + wait + hold + spill,
            c1 + spill,
            wait,
            self._transfer[bounced],
            1.0 if bounced else miss_frac,
            c1 + read_stall + wait + hold + spill,
        )


class SharedLockEngine(_SharedBase):
    """Shared state guarded by per-entry spinlocks (eBPF bpf_spin_lock)."""

    name = "shared-lock"
    lock_kind = "spinlock"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Every core spins on a bounced line's lock.  (Indexed by
        # ``bounced``.)
        self._hold = tuple(self.contention.lock_hold_ns(self.costs.c1, contenders)
                           for contenders in (1, self.num_cores))
        #: lock instructions + line handoffs, indexed by ``bounced``.
        self._handoff = tuple(hold - self.costs.c1 for hold in self._hold)

    def packet_terms(self, core: int, key: object, start_ns: float) -> Terms:
        d = self._d
        # The lock is taken after dispatch; the update (c1) runs under it.
        bounced, wait, hold = self._advance(core, key, start_ns + d, self._hold)
        miss_frac, spill = self._l2_access(core, key)
        return (
            d + wait + hold + spill,
            self._c1 + spill,
            wait,
            self._handoff[bounced],
            1.0 if bounced else miss_frac,
            wait + hold + spill,
        )


def make_shared_engine(program, num_cores, **kwargs) -> _SharedBase:
    """The shared baseline as evaluated: atomics when possible, else locks."""
    if program.needs_locks:
        return SharedLockEngine(program, num_cores, **kwargs)
    return SharedAtomicEngine(program, num_cores, **kwargs)

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

from ..cpu.cache import BounceTracker
from ..cpu.locks import SerializationTable
from ..cpu.simulator import PerfPacket
from ..telemetry.events import EV_LOCK_WAIT
from .base import BaseEngine

__all__ = ["SharedAtomicEngine", "SharedLockEngine", "make_shared_engine"]


#: the serialization key standing in for program-global state (a NAT's
#: port pool): one entry contended by every packet that touches it.
_GLOBAL_KEY = object()


class _SharedBase(BaseEngine):
    """Round-robin spraying + shared-map bookkeeping."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rr = 0
        self.serialization = SerializationTable()
        self.bounces = BounceTracker(transfer_ns=self.contention.line_transfer_ns)

    def reset(self) -> None:
        super().reset()
        self._rr = 0
        self.serialization.reset()
        self.bounces.reset()

    def steer(self, pp: PerfPacket) -> int:
        core = self._rr
        self._rr = (self._rr + 1) % self.num_cores
        return core

    def _global_update_ns(self, core: int, pp: PerfPacket, start_ns: float) -> float:
        """Serialize on the program's global entry when this packet updates
        it (§2.2: e.g. a NAT's free-port list).  Returns extra stall ns."""
        if not pp.touches_global:
            return 0.0
        bounced, read_stall = self.bounces.access(core, _GLOBAL_KEY)
        hold = self.contention.lock_hold_ns(
            self.costs.c1 * 0.5, self.num_cores if bounced else 1
        )
        wait = self.serialization.acquire(_GLOBAL_KEY, start_ns, hold)
        if wait > 0 and self.tracer.enabled:
            self.tracer.emit_sampled(
                self.spans.sampled(pp.index), EV_LOCK_WAIT, start_ns,
                core=core, dur_ns=wait, lock="global", index=pp.index)
        counters = self.counters.cores[core]
        counters.wait_ns += wait
        counters.transfer_ns += read_stall
        counters.l2_misses += 1.0 if bounced else 0.0
        counters.l2_accesses += 1
        return read_stall + wait + hold


class SharedAtomicEngine(_SharedBase):
    """Shared state updated with hardware atomic RMW instructions.

    Only valid for programs whose update is a single fetch-modify-write
    (Table 1); constructing it for a lock-requiring program raises.
    """

    name = "shared-atomic"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.program.needs_locks:
            raise ValueError(
                f"{self.program.name} updates are too complex for hardware "
                "atomics (Table 1); use SharedLockEngine"
            )

    def service_ns(self, core: int, pp: PerfPacket, start_ns: float) -> float:
        c = self.costs
        counters = self.counters.cores[core]
        if not pp.valid:
            counters.charge_packet(dispatch_ns=c.d, compute_ns=c.c1, state_accesses=0)
            return c.d + c.c1
        bounced, read_stall = self.bounces.access(core, pp.key)
        # A bounced line stalls twice: the initial load misses (the line is
        # dirty in another core's cache), and the RMW then needs the line
        # exclusively for a full cross-core transfer.  Uncontended updates
        # pay only the RMW instruction.
        hold = self.contention.atomic_hold_ns() if bounced else self.contention.atomic_ns
        # The RMW happens after dispatch + compute + the read stall.
        wait = self.serialization.acquire(pp.key, start_ns + c.d + c.c1 + read_stall, hold)
        if wait > 0 and self.tracer.enabled:
            self.tracer.emit_sampled(
                self.spans.sampled(pp.index), EV_LOCK_WAIT, start_ns,
                core=core, dur_ns=wait, lock="atomic", index=pp.index)
        miss_frac, spill = self.l2.access(core, pp.key)
        misses = miss_frac + (1.0 if bounced else 0.0)
        total = c.d + c.c1 + read_stall + wait + hold + spill
        counters.charge_packet(
            dispatch_ns=c.d,
            compute_ns=c.c1 + spill,
            wait_ns=wait,
            transfer_ns=read_stall + (hold if bounced else 0.0),
            state_accesses=1,
            l2_misses=misses,
            program_ns=c.c1 + read_stall + wait + hold + spill,
        )
        total += self._global_update_ns(core, pp, start_ns + total)
        return total


class SharedLockEngine(_SharedBase):
    """Shared state guarded by per-entry spinlocks (eBPF bpf_spin_lock)."""

    name = "shared-lock"

    def service_ns(self, core: int, pp: PerfPacket, start_ns: float) -> float:
        c = self.costs
        counters = self.counters.cores[core]
        if not pp.valid:
            counters.charge_packet(dispatch_ns=c.d, compute_ns=c.c1, state_accesses=0)
            return c.d + c.c1
        bounced, _ = self.bounces.access(core, pp.key)
        contenders = self.num_cores if bounced else 1
        hold = self.contention.lock_hold_ns(c.c1, contenders)
        # The lock is taken after dispatch; the update (c1) runs under it.
        wait = self.serialization.acquire(pp.key, start_ns + c.d, hold)
        if wait > 0 and self.tracer.enabled:
            self.tracer.emit_sampled(
                self.spans.sampled(pp.index), EV_LOCK_WAIT, start_ns,
                core=core, dur_ns=wait, lock="spinlock", index=pp.index)
        miss_frac, spill = self.l2.access(core, pp.key)
        misses = miss_frac + (1.0 if bounced else 0.0)
        lock_overhead = hold - c.c1  # lock instructions + line handoffs
        total = c.d + wait + hold + spill
        counters.charge_packet(
            dispatch_ns=c.d,
            compute_ns=c.c1 + spill,
            wait_ns=wait,
            transfer_ns=lock_overhead,
            state_accesses=1,
            l2_misses=misses,
            program_ns=wait + hold + spill,
        )
        total += self._global_update_ns(core, pp, start_ns + total)
        return total


def make_shared_engine(program, num_cores, **kwargs) -> _SharedBase:
    """The shared baseline as evaluated: atomics when possible, else locks."""
    if program.needs_locks:
        return SharedLockEngine(program, num_cores, **kwargs)
    return SharedAtomicEngine(program, num_cores, **kwargs)

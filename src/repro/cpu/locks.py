"""Serialization-point models: per-key spinlocks and hardware atomics.

Both model the same primitive — a point in time before which the next
update of a key cannot begin — differing only in hold time.  An atomic RMW
holds the line for one cross-core transfer; a spinlock holds it for the
lock operations plus the guarded update plus handoff traffic that grows
with the number of spinning contenders (``ContentionParams.lock_hold_ns``).

The evaluation's baselines map onto these directly: eBPF spinlocks [10] for
programs whose updates are too complex for atomics, ``__sync`` atomics [25]
for the counter programs (Table 1).
"""

from __future__ import annotations

from typing import Dict, Hashable

__all__ = ["SerializationTable"]


class SerializationTable:
    """Per-key monotonic "next free time" table.

    ``acquire(key, start, hold)`` returns the wait endured by an update
    arriving at ``start`` that needs the key exclusively for ``hold`` ns,
    and advances the key's free time.  This captures the throughput ceiling
    of a serialization point (1/hold updates per second) and the spin time
    that inflates per-packet cost under contention.
    """

    def __init__(self) -> None:
        self._free_at: Dict[Hashable, float] = {}
        self.total_wait_ns = 0.0
        self.acquisitions = 0
        self.contended = 0

    def acquire(self, key: Hashable, start_ns: float, hold_ns: float) -> float:
        """Returns the wait (ns) before the update could begin."""
        if hold_ns < 0:
            raise ValueError("hold time must be non-negative")
        free_at = self._free_at.get(key, 0.0)
        wait = free_at - start_ns if free_at > start_ns else 0.0
        self._free_at[key] = start_ns + wait + hold_ns
        self.acquisitions += 1
        if wait > 0:
            self.contended += 1
        self.total_wait_ns += wait
        return wait

    def reset(self) -> None:
        self._free_at.clear()
        self.total_wait_ns = 0.0
        self.acquisitions = 0
        self.contended = 0

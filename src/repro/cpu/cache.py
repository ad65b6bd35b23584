"""Cache behaviour models: L2 capacity and cross-core line bouncing.

Two effects dominate the paper's Figure 8 story:

* **Bouncing** — a state cache line written by one core and then accessed by
  another must travel through the LLC (a "bounce"), stalling the accessor.
  Shared-state techniques bounce on nearly every packet of a hot flow;
  sharded and SCR techniques never do.  A bounce and the line's
  serialization are one step of one record,
  :class:`repro.cpu.locks.LineTable`.
* **Capacity spill** — a core whose resident state outgrows its private L2
  pays extra latency per access (SCR replicates *all* flows onto every core,
  so it feels this first — scaling limit (ii) in §3.1).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Set, Tuple

from .costmodel import L2_BYTES, STATE_ENTRY_BYTES

__all__ = ["L2Model"]


class L2Model:
    """Per-core L2 occupancy: compulsory misses + probabilistic capacity spill.

    The first touch of a key on a core is a compulsory miss.  Once the
    number of resident entries exceeds the L2's capacity in entries, each
    access misses with probability ``1 - capacity/resident`` (random
    replacement approximation) and pays ``spill_ns`` when it does.  Misses
    are accounted fractionally to keep the model deterministic.
    """

    def __init__(
        self,
        num_cores: int,
        l2_bytes: int = L2_BYTES,
        entry_bytes: int = STATE_ENTRY_BYTES,
        spill_ns: float = 18.0,
    ) -> None:
        if num_cores < 1:
            raise ValueError("need at least one core")
        self.capacity_entries = max(1, l2_bytes // entry_bytes)
        self.spill_ns = spill_ns
        self._resident: Tuple[Set[Hashable], ...] = tuple(set() for _ in range(num_cores))

    def access(self, core: int, key: Hashable) -> Tuple[float, float]:
        """Touch ``key`` on ``core``; returns (miss fraction, stall ns)."""
        resident = self._resident[core]
        if key not in resident:
            resident.add(key)
            return 1.0, self.spill_ns
        excess = len(resident) - self.capacity_entries
        if excess <= 0:
            return 0.0, 0.0
        miss_prob = excess / len(resident)
        return miss_prob, miss_prob * self.spill_ns

    def install(self, core: int, keys: Iterable[Hashable]) -> None:
        """Bulk-mark ``keys`` resident on ``core``.

        The columnar hot path computes miss fractions for a whole run with
        array math (:func:`repro.cpu.columnar.l2_spill_rows`) and then
        commits the end state here — equivalent to touching each key once.
        """
        self._resident[core].update(keys)

    def reset(self) -> None:
        for s in self._resident:
            s.clear()


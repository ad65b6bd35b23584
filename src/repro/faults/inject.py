"""Per-run injector adapters over an immutable :class:`FaultPlan`.

A plan is stateless; a *run* is not — kills latch, stalls fire once, and
counts accumulate.  These adapters hold that per-run state so the hosting
layer (the event simulator, the sequencer) stays lean:

* :class:`SimFaults` — the multicore simulator's view: wire→ring drops,
  ring-pop drops, duplicates, reorder offsets, core stalls and kills.
* :class:`SequencerFaults` — the sequencer's view: history truncation,
  zeroing the oldest rows of an emission exactly as a partial SRAM
  readout would, and remembering which sequences were hit.

Neither adapter touches clocks or process RNGs (scrlint SCR006): every
decision delegates to the plan's seeded hash.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .plan import FaultPlan

__all__ = ["SimFaults", "SequencerFaults"]


class SimFaults:
    """Mutable per-run fault state for one :func:`repro.cpu.simulator.
    simulate` run (or one functional harness run)."""

    def __init__(self, plan: FaultPlan, num_cores: int) -> None:
        self.plan = plan
        self.num_cores = num_cores
        self.dropped = 0
        self.pop_dropped = 0
        self.duplicated = 0
        self.reordered = 0
        self.stalls_fired = 0
        self.stall_ns_total = 0.0
        self.kills = 0
        self._killed = [False] * num_cores
        self._kill_at: List[Optional[int]] = [
            plan.kill_index(core) for core in range(num_cores)
        ]
        self._stalls: List[List[Tuple[int, float]]] = [
            list(plan.stalls_for(core)) for core in range(num_cores)
        ]

    # -- decisions (each counts when it fires) --------------------------------

    def drop(self, index: int) -> bool:
        if self.plan.drops(index):
            self.dropped += 1
            return True
        return False

    def drop_rows(self, rows: np.ndarray, count: int) -> np.ndarray:
        """:meth:`drop` over ``rows``, indices into a ``count``-packet
        trace: which of them drop (a bool per row), counted like it."""
        dropped = self.plan.drop_mask(count)[rows]
        self.dropped += int(np.count_nonzero(dropped))
        return dropped

    def pop_drop(self, index: int) -> bool:
        if self.plan.pop_drops(index):
            self.pop_dropped += 1
            return True
        return False

    def duplicate(self, index: int) -> bool:
        if self.plan.duplicates(index):
            self.duplicated += 1
            return True
        return False

    def reorder_offset(self, index: int) -> int:
        """Displacement for packet ``index``; count via :meth:`note_reorder`
        only when the host actually applied it (an empty ring can't)."""
        return self.plan.reorder_offset(index)

    def note_reorder(self, index: int) -> None:
        self.reordered += 1

    # -- core lifecycle -------------------------------------------------------

    def killed(self, core: int, index: int) -> bool:
        """Is ``core`` dead by the time it would serve packet ``index``?"""
        if self._killed[core]:
            return True
        kill_at = self._kill_at[core]
        if kill_at is not None and index >= kill_at:
            self._killed[core] = True
            self.kills += 1
            return True
        return False

    def killed_cores(self) -> List[int]:
        return [core for core, dead in enumerate(self._killed) if dead]

    def stall_ns(self, core: int, index: int) -> float:
        """Pending stall time ``core`` owes before serving ``index``."""
        pending = self._stalls[core]
        total = 0.0
        while pending and pending[0][0] <= index:
            total += pending.pop(0)[1]
            self.stalls_fired += 1
        if total:
            self.stall_ns_total += total
        return total

    def summary(self) -> Dict[str, object]:
        return {
            "fault_dropped": self.dropped,
            "fault_pop_dropped": self.pop_dropped,
            "fault_duplicated": self.duplicated,
            "fault_reordered": self.reordered,
            "stalls_fired": self.stalls_fired,
            "stall_ns_total": self.stall_ns_total,
            "core_kills": self.kills,
            "killed_cores": self.killed_cores(),
        }


class SequencerFaults:
    """History-truncation injector for the packet-history sequencer.

    Rows are zeroed oldest-first in the emitted copy only — the
    sequencer's ring memory itself stays intact, matching the failure
    mode (a bad readout of one emission, not corrupted SRAM).
    """

    def __init__(self, plan: FaultPlan, meta_size: int) -> None:
        self.plan = plan
        self.meta_size = meta_size
        self.truncations = 0
        self.rows_zeroed = 0
        #: seq of the emission → the history sequences whose rows were lost.
        self.truncated: Dict[int, Tuple[int, ...]] = {}

    def truncate(
        self,
        seq: int,
        rows: List[bytes],
        index_ptr: int,
        num_slots: int,
    ) -> Tuple[List[bytes], Tuple[int, ...]]:
        """Apply the plan to one emission's ring dump.

        ``rows`` are in ring order; chronological position ``m`` (holding
        sequence ``seq - num_slots + m``) lives at ring index
        ``(index_ptr + m) % num_slots``.  Returns (possibly new rows,
        the zeroed history sequences oldest-first).
        """
        depth = self.plan.truncate_depth(seq)
        if depth <= 0:
            return rows, ()
        zero = b"\x00" * self.meta_size
        out = list(rows)
        zeroed: List[int] = []
        for m in range(num_slots):
            s = seq - num_slots + m
            if s < 1:
                continue  # padding slot, nothing to lose
            out[(index_ptr + m) % num_slots] = zero
            zeroed.append(s)
            if len(zeroed) >= depth:
                break
        if not zeroed:
            return rows, ()
        self.truncations += 1
        self.rows_zeroed += len(zeroed)
        self.truncated[seq] = tuple(zeroed)
        return out, tuple(zeroed)

    def summary(self) -> Dict[str, object]:
        return {
            "truncations": self.truncations,
            "rows_zeroed": self.rows_zeroed,
        }

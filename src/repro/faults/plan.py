"""Deterministic fault schedules: a FaultSpec turned into decisions.

The whole fault subsystem rests on one property: *the schedule is a pure
function of the spec*.  A sequential PRNG cannot give that — whether
packet 512 drops would depend on how many random draws preceded it, which
differs between the serial and ``--jobs N`` paths and between an MLFFR
search's probes.  Instead every decision hashes ``(seed, fault kind,
packet index)`` through a splitmix64-style integer mixer into a uniform
[0, 1) value and compares it against the spec's rate.  Consequences:

* examining packets in any order (or not at all) yields the same answers;
* every MLFFR probe of one scenario sees the identical fault pattern;
* two processes never need to share RNG state to agree.

This is the "injected seeded FaultPlan RNG" that scrlint SCR006 requires
all fault/recovery code to route randomness through.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs.sampling import splitmix64, splitmix64_array
from .spec import FaultSpec

__all__ = ["FaultPlan"]

#: Domain-separation tags: one per fault kind, so a packet's drop decision
#: is independent of its duplicate/reorder/truncate decisions.
_TAG_DROP = 0x1D
_TAG_POP_DROP = 0x2D
_TAG_DUPLICATE = 0x3D
_TAG_REORDER = 0x4D
_TAG_REORDER_OFFSET = 0x5D
_TAG_TRUNCATE = 0x6D


def _unit(seed: int, tag: int, index: int) -> float:
    """Uniform [0, 1) as a pure function of (seed, tag, index).

    ``splitmix64`` reduces its input mod 2**64 before mixing, and xor
    commutes with that reduction, so the operands need no masking.
    """
    h = splitmix64(seed ^ tag * 0xA24BAED4963EE407)
    h = splitmix64(h ^ index)
    # Top 53 bits → an exactly representable double in [0, 1).
    return (h >> 11) / float(1 << 53)


def _units(seed: int, tag: int, count: int) -> np.ndarray:
    """:func:`_unit` for every index in ``range(count)``, as float64."""
    h = np.uint64(splitmix64(seed ^ tag * 0xA24BAED4963EE407))
    h = splitmix64_array(h ^ np.arange(count, dtype=np.uint64))
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


class FaultPlan:
    """Order-independent fault decisions for one :class:`FaultSpec`.

    Stateless by design: every method is a pure function of the spec and
    its arguments, so one plan can be shared (or rebuilt) freely across
    the NIC model, the event simulator, and the functional harness and
    still describe one single schedule.  (:meth:`drop_mask` memoizes its
    last answer, a pure function of the count.)
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self._drop_ix = frozenset(spec.drop_indices)
        self._pop_ix = frozenset(spec.pop_drop_indices)
        self._dup_ix = frozenset(spec.duplicate_indices)
        self._reorder_ix = frozenset(spec.reorder_indices)
        self._trunc_seqs = frozenset(spec.truncate_seqs)
        self._stalls: Dict[int, List[Tuple[int, float]]] = {}
        for core, from_index, stall_ns in spec.core_stalls:
            self._stalls.setdefault(core, []).append((from_index, stall_ns))
        for stalls in self._stalls.values():
            stalls.sort()
        self._kills: Dict[int, int] = {}
        for core, from_index in spec.core_kills:
            prev = self._kills.get(core)
            self._kills[core] = from_index if prev is None else min(prev, from_index)
        self._drop_mask: Tuple[int, np.ndarray] = (-1, np.empty(0, dtype=bool))

    @property
    def any_faults(self) -> bool:
        return self.spec.any_faults

    @property
    def drops_only(self) -> bool:
        """True when the plan fires and every decision it can make is a
        :meth:`drops` (``drop_rate`` / ``drop_indices``): no pop drops,
        duplicates, reordering, truncation, stalls or kills."""
        spec = self.spec
        return self.any_faults and not (
            spec.pop_drop_rate or spec.reorder_rate or spec.duplicate_rate
            or spec.truncate_rate or spec.pop_drop_indices
            or spec.duplicate_indices or spec.reorder_indices
            or spec.truncate_seqs or spec.core_stalls or spec.core_kills)

    # -- per-packet decisions (0-based arrival index) -------------------------

    def drops(self, index: int) -> bool:
        """Does packet ``index`` drop between wire admission and its ring?"""
        if index in self._drop_ix:
            return True
        rate = self.spec.drop_rate
        return bool(rate) and _unit(self.spec.seed, _TAG_DROP, index) < rate

    def drop_mask(self, count: int) -> np.ndarray:
        """:meth:`drops` for every index in ``range(count)``, as one
        read-only bool array (the same splitmix64 draws, vectorized).
        Every probe of a search asks for the same count, so the last
        answer is kept."""
        if self._drop_mask[0] != count:
            rate = self.spec.drop_rate
            mask = (_units(self.spec.seed, _TAG_DROP, count) < rate if rate
                    else np.zeros(count, dtype=bool))
            mask[[i for i in self._drop_ix if 0 <= i < count]] = True
            mask.setflags(write=False)
            self._drop_mask = (count, mask)
        return self._drop_mask[1]

    def pop_drops(self, index: int) -> bool:
        """Is packet ``index`` discarded at the ring-pop (after dispatch)?"""
        if index in self._pop_ix:
            return True
        rate = self.spec.pop_drop_rate
        return bool(rate) and _unit(self.spec.seed, _TAG_POP_DROP, index) < rate

    def duplicates(self, index: int) -> bool:
        """Is packet ``index`` delivered twice?"""
        if index in self._dup_ix:
            return True
        rate = self.spec.duplicate_rate
        return bool(rate) and _unit(self.spec.seed, _TAG_DUPLICATE, index) < rate

    def reorder_offset(self, index: int) -> int:
        """0 (in order) or 1..reorder_window packets of displacement."""
        window = self.spec.reorder_window
        if index in self._reorder_ix:
            return 1 + int(_unit(self.spec.seed, _TAG_REORDER_OFFSET, index) * window)
        rate = self.spec.reorder_rate
        if not rate or _unit(self.spec.seed, _TAG_REORDER, index) >= rate:
            return 0
        return 1 + int(_unit(self.spec.seed, _TAG_REORDER_OFFSET, index) * window)

    # -- sequencer decisions (1-based sequence numbers) -----------------------

    def truncate_depth(self, seq: int) -> int:
        """How many oldest history rows of emission ``seq`` are lost."""
        if seq in self._trunc_seqs:
            return self.spec.truncate_depth
        rate = self.spec.truncate_rate
        if rate and _unit(self.spec.seed, _TAG_TRUNCATE, seq) < rate:
            return self.spec.truncate_depth
        return 0

    # -- per-core schedules ---------------------------------------------------

    def stalls_for(self, core: int) -> Tuple[Tuple[int, float], ...]:
        """Sorted (from_index, stall_ns) schedule for ``core``."""
        return tuple(self._stalls.get(core, ()))

    def kill_index(self, core: int) -> Optional[int]:
        """The packet index at which ``core`` dies, or None."""
        return self._kills.get(core)

    # -- introspection --------------------------------------------------------

    def schedule(self, num_packets: int) -> Dict[str, List[int]]:
        """The firing indices over ``num_packets`` packets, per kind.

        Tests use this to assert determinism (same spec ⇒ same schedule)
        and artifacts use it to report exactly what was injected.
        """
        return {
            "drop": [i for i in range(num_packets) if self.drops(i)],
            "pop_drop": [i for i in range(num_packets) if self.pop_drops(i)],
            "duplicate": [i for i in range(num_packets) if self.duplicates(i)],
            "reorder": [i for i in range(num_packets) if self.reorder_offset(i)],
            "truncate": [s for s in range(1, num_packets + 1)
                         if self.truncate_depth(s)],
        }

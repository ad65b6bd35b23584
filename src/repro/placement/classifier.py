"""Online elephant/mice classification: count-min + hysteresis.

Per-flow exact counters are exactly what a million-flow data plane cannot
afford, so the classification path reads a :class:`CountMinSketch` (one
conservative-update increment per packet, estimates never under-count)
and keeps only the *promoted* flows in an exact candidate set — the
space-saving shape: O(sketch + max_elephants) memory regardless of flow
count.

Placement must not flap: a flow oscillating around one threshold would
otherwise migrate its state back and forth every few packets, and the
migration cost would swamp the benefit.  Two mechanisms prevent that:

* **threshold hysteresis** — promotion at ``promote_threshold`` estimated
  packets, demotion only below the strictly smaller ``demote_threshold``;
* **periodic decay** — every ``decay_interval`` observations the sketch
  halves, so estimates track *recent* rate; demotion is evaluated only at
  decay boundaries, bounding migrations per epoch.

Everything is a pure function of (seed, packet stream): no clocks, no
process RNG, no module state — the classifier passes the same SCR004
lint bar as the engines it steers for, which is what makes ``--jobs N``
artifacts byte-identical.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, List, Tuple

from ..state.cuckoo import _fnv1a, _key_bytes
from .spec import PlacementSpec

__all__ = ["CountMinSketch", "ElephantClassifier", "PlacementEvent"]

PROMOTE = "promote"
DEMOTE = "demote"


@dataclasses.dataclass(frozen=True)
class PlacementEvent:
    """One placement change: ``kind`` is ``"promote"`` or ``"demote"``."""

    kind: str
    key: Hashable


class CountMinSketch:
    """Seeded count-min sketch with conservative update and halving decay.

    Row indexes derive from one 64-bit FNV-1a hash of the key's bytes by
    double hashing (``h1 + i·h2``), so the cost is a single byte-level
    hash per distinct key no matter the depth (the sketch remembers each
    key's indexes).  Conservative update increments only the minimal
    counters, tightening the classic over-count without breaking the
    "never under-counts" guarantee promotions rely on.
    """

    def __init__(self, width: int = 1024, depth: int = 4, seed: int = 0) -> None:
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be positive")
        self.width = width
        self.depth = depth
        self._seed = seed
        self._rows: List[List[int]] = [[0] * width for _ in range(depth)]
        #: key -> one counter index per row: a pure function.
        self._index_memo: Dict[Hashable, Tuple[int, ...]] = {}

    def _indexes(self, key: Hashable) -> Tuple[int, ...]:
        idxs = self._index_memo.get(key)
        if idxs is None:
            h = _fnv1a(_key_bytes(key), self._seed)
            h1 = h & 0xFFFFFFFF
            h2 = ((h >> 32) | 1) & 0xFFFFFFFF
            idxs = self._index_memo[key] = tuple(
                (h1 + i * h2) % self.width for i in range(self.depth))
        return idxs

    def add(self, key: Hashable, count: int = 1) -> int:
        """Record ``count`` observations; returns the updated estimate."""
        cells = tuple(zip(self._rows, self._indexes(key)))
        target = min([row[idx] for row, idx in cells]) + count
        for row, idx in cells:
            if row[idx] < target:
                row[idx] = target
        return target

    def estimate(self, key: Hashable) -> int:
        return min([row[idx] for row, idx in zip(self._rows, self._indexes(key))])

    def decay(self) -> None:
        """Halve every counter (the aging clock demotion runs on)."""
        for row in self._rows:
            for i, value in enumerate(row):
                if value:
                    row[i] = value >> 1

    def reset(self) -> None:
        for row in self._rows:
            for i in range(len(row)):
                row[i] = 0


class ElephantClassifier:
    """Promote/demote flows between SCR and RSS placement, deterministically.

    ``observe(key)`` is the per-packet entry point: it records the packet
    in the sketch and returns the flow's placement *after* this packet
    plus any :class:`PlacementEvent` that fired on it (so the engine can
    charge migration cost on exactly the packet that caused it).
    ``is_promoted(key)`` is the read-only probe for pre-steer paths that
    must not observe (e.g. wire-length accounting).
    """

    def __init__(self, spec: PlacementSpec) -> None:
        self.spec = spec
        self.sketch = CountMinSketch(
            width=spec.sketch_width, depth=spec.sketch_depth, seed=spec.seed
        )
        #: insertion-ordered promoted set (iteration order is deterministic).
        self._promoted: Dict[Hashable, bool] = {}
        self.observations = 0
        self.promotions = 0
        self.demotions = 0
        self.decays = 0

    def is_promoted(self, key: Hashable) -> bool:
        return key in self._promoted

    def observe(self, key: Hashable) -> Tuple[bool, Tuple[PlacementEvent, ...]]:
        """Record one packet of ``key``; returns (promoted_after, events)."""
        spec = self.spec
        self.observations += 1
        events: List[PlacementEvent] = []
        if self.observations % spec.decay_interval == 0:
            self.sketch.decay()
            self.decays += 1
            # Demotion is evaluated only here: a promoted flow must decay
            # below the lower hysteresis threshold to lose SCR placement,
            # so placement cannot flap between consecutive packets.
            for promoted in list(self._promoted):
                est = self.sketch.estimate(promoted)
                if est < spec.demote_threshold:
                    del self._promoted[promoted]
                    self.demotions += 1
                    events.append(PlacementEvent(DEMOTE, promoted))
        estimate = self.sketch.add(key)
        if key in self._promoted:
            return True, tuple(events)
        if (
            estimate >= spec.promote_threshold
            and len(self._promoted) < spec.max_elephants
        ):
            self._promoted[key] = True
            self.promotions += 1
            events.append(PlacementEvent(PROMOTE, key))
            return True, tuple(events)
        return False, tuple(events)

    def snapshot(self) -> Dict[str, int]:
        """Counters for telemetry / the engine's placement summary."""
        return {
            "observations": self.observations,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "decays": self.decays,
            "promoted_now": len(self._promoted),
        }

    def reset(self) -> None:
        """Back to the initial state (engines reset between MLFFR probes)."""
        self.sketch.reset()
        self._promoted.clear()
        self.observations = 0
        self.promotions = 0
        self.demotions = 0
        self.decays = 0

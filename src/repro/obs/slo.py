"""SLO analytics: a pure reducer from fault/recovery events to distributions.

ROADMAP item 4's serve mode needs SLO-style measures before it can exist:
**time-to-detect** (injection → the replica notices the gap),
**time-to-resync** (injection → state restored, for repaired gaps),
**packets degraded** (replay/fast-forward work per recovery), and
**blast radius** (divergent replicas per divergence check).  This module
computes all four from the event log alone — the same ``events.jsonl``
rows the chaos harness, the functional engine and the performance
simulator emit — so any artifact, old or new, serial or ``--jobs N``,
reduces identically.

The reducer is a fold over timestamp-ordered events:

* ``fault.drop`` / ``fault.pop_drop`` / ``fault.truncate`` **open** a
  gap on their core (truncations carry no core and sit in a shared
  bucket closed by any detection);
* ``scr.fast_forward`` closes gaps as **covered** (TTR = TTD: the
  history window healed the hole in-line);
* ``recovery.quarantine`` marks gaps **detected**, deferring resolution
  to the core's next ``recovery.resync`` (**resynced**, finite TTR) or
  ``recovery.unrecoverable`` (TTR undefined, the replica is dead);
* ``recovery.round_start`` (the functional engine's Algorithm 1 round,
  when a gap reaches past the carried history) marks the core's gaps
  **detected**; its ``recovery.round_finish`` closes them as
  **recovered** from peer logs (finite TTR);
* ``recovery.gap_detected`` closes gaps as **forked** (detected, never
  repaired — the no-recovery baseline);
* gaps still open at the end are **undetected** when core-attributed (a
  real loss nobody noticed; on an unrecoverable core, folded into
  unrecoverable) and **benign** when coreless (a truncation whose zeroed
  rows no replica ever needed).

Timestamps are whatever the emitting layer used — simulated ns in the
performance path, virtual ticks in the functional harness — so the
distributions are always finite and comparable within one run.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..telemetry.events import (
    EV_DIVERGENCE,
    EV_FAST_FORWARD,
    EV_FAULT_DROP,
    EV_FAULT_KILL,
    EV_FAULT_POP_DROP,
    EV_FAULT_TRUNCATE,
    EV_GAP_DETECTED,
    EV_QUARANTINE,
    EV_RECOVERY_FINISH,
    EV_RECOVERY_START,
    EV_RESYNC,
    EV_UNRECOVERABLE,
)

__all__ = ["SLO_SCHEMA", "GAP_OPENING_KINDS", "compute_slo"]

#: Bump on any incompatible change to the section shape.
SLO_SCHEMA = "scr-repro/slo/v1"

#: Event kinds that open a sequence gap on a replica.
GAP_OPENING_KINDS = frozenset({
    EV_FAULT_DROP,
    EV_FAULT_POP_DROP,
    EV_FAULT_TRUNCATE,
})

_RESOLUTION_KINDS = frozenset({
    EV_FAST_FORWARD,
    EV_GAP_DETECTED,
    EV_QUARANTINE,
    EV_RECOVERY_START,
    EV_RECOVERY_FINISH,
    EV_RESYNC,
    EV_UNRECOVERABLE,
    EV_DIVERGENCE,
})

#: Detections that defer repair to a later event on the same core.
_DEFERRED: Mapping[str, str] = MappingProxyType({
    EV_QUARANTINE: EV_RESYNC,
    EV_RECOVERY_START: EV_RECOVERY_FINISH,
})

#: Repair events: the gap outcome each closes into, and its work field.
_REPAIRS: Mapping[str, Tuple[str, str]] = MappingProxyType({
    EV_RESYNC: ("resynced", "replayed"),
    EV_RECOVERY_FINISH: ("recovered", "recovered"),
})


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile over a sorted list (exact for small n)."""
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]


def _dist(values: List[float]) -> Dict[str, float]:
    """The distribution summary every SLO measure serializes as."""
    if not values:
        return {"count": 0}
    ordered = sorted(values)
    return {
        "count": len(ordered),
        "p50": _percentile(ordered, 0.50),
        "p99": _percentile(ordered, 0.99),
        "max": ordered[-1],
        "mean": sum(ordered) / len(ordered),
    }


def compute_slo(events: Iterable[Mapping[str, object]]) -> Optional[dict]:
    """Reduce event dicts (``Event.to_dict`` rows) to the ``slo`` section.

    Returns ``None`` when the run had no fault or recovery events at all,
    so fault-free artifacts stay byte-identical to their pre-SLO shape.
    """
    ordered = sorted(events, key=lambda e: float(e.get("ts_ns", 0.0)))  # type: ignore[arg-type]

    #: open injections per core (None = events with no core attribution).
    pending: Dict[Optional[int], List[float]] = {}
    #: detected injections awaiting repair, per (core, repair kind).
    awaiting: Dict[Tuple[int, str], List[float]] = {}
    dead_unrecoverable: Set[int] = set()
    dead_killed: Set[int] = set()
    cores_affected: Set[int] = set()

    ttd: List[float] = []
    ttr: List[float] = []
    degraded: List[float] = []
    blast: List[float] = []
    counts = {
        "injected": 0, "detected": 0, "covered": 0, "resynced": 0,
        "recovered": 0, "unrecoverable": 0, "forked": 0, "undetected": 0,
        "unresolved": 0, "benign": 0,
    }
    saw_any = False

    def _core(ev: Mapping[str, object]) -> Optional[int]:
        core = ev.get("core")
        return int(core) if isinstance(core, (int, float)) else None

    def _take(core: Optional[int]) -> List[float]:
        """Open injections a detection on ``core`` accounts for (its own
        plus the unattributed bucket)."""
        taken = pending.pop(core, [])
        if core is not None:
            taken += pending.pop(None, [])
        return taken

    for ev in ordered:
        kind = ev.get("kind")
        if kind not in GAP_OPENING_KINDS and kind not in _RESOLUTION_KINDS \
                and kind != EV_FAULT_KILL:
            continue
        saw_any = True
        ts = float(ev.get("ts_ns", 0.0))  # type: ignore[arg-type]
        core = _core(ev)
        if core is not None:
            cores_affected.add(core)
        if kind in GAP_OPENING_KINDS:
            counts["injected"] += 1
            if core in dead_unrecoverable:
                # A gap on an already-dead replica: nothing will ever
                # detect it; the replica was reported unrecoverable.
                counts["unrecoverable"] += 1
            elif core in dead_killed:
                counts["undetected"] += 1
            else:
                pending.setdefault(core, []).append(ts)
        elif kind == EV_FAULT_KILL:
            if core is not None:
                dead_killed.add(core)
        elif kind == EV_FAST_FORWARD:
            for inj in _take(core):
                delta = ts - inj
                counts["detected"] += 1
                counts["covered"] += 1
                ttd.append(delta)
                ttr.append(delta)
            length = ev.get("length")
            if isinstance(length, (int, float)) and length > 0:
                degraded.append(float(length))
        elif kind in _DEFERRED:
            if core is None:
                continue
            bucket = awaiting.setdefault((core, _DEFERRED[kind]), [])
            for inj in _take(core):
                counts["detected"] += 1
                ttd.append(ts - inj)
                bucket.append(inj)
        elif kind == EV_GAP_DETECTED:
            for inj in _take(core):
                counts["detected"] += 1
                counts["forked"] += 1
                ttd.append(ts - inj)
        elif kind in _REPAIRS:
            if core is None:
                continue
            outcome, work = _REPAIRS[kind]
            for inj in awaiting.pop((core, kind), []):
                counts[outcome] += 1
                ttr.append(ts - inj)
            amount = ev.get(work)
            if isinstance(amount, (int, float)) and amount > 0:
                degraded.append(float(amount))
        elif kind == EV_UNRECOVERABLE:
            if core is None:
                continue
            dead_unrecoverable.add(core)
            counts["unrecoverable"] += len(awaiting.pop((core, EV_RESYNC), []))
        elif kind == EV_DIVERGENCE:
            radius = ev.get("blast_radius")
            if isinstance(radius, (int, float)):
                blast.append(float(radius))

    if not saw_any:
        return None

    # Gaps still open at the end of the log.  A core-attributed injection
    # IS a sequence gap by construction, so an unclaimed one was missed
    # (undetected); a coreless injection (history truncation) only
    # *potentially* gaps a replica — unclaimed means the zeroed rows were
    # never needed, which is benign, not a detection failure.
    for core, injections in sorted(
        pending.items(), key=lambda kv: (kv[0] is None, kv[0] or 0)
    ):
        if core is None:
            counts["benign"] += len(injections)
        elif core in dead_unrecoverable:
            counts["unrecoverable"] += len(injections)
        else:
            counts["undetected"] += len(injections)
    counts["unresolved"] = sum(len(v) for v in awaiting.values())

    return {
        "schema": SLO_SCHEMA,
        "gaps": counts,
        "ttd_ns": _dist(ttd),
        "ttr_ns": _dist(ttr),
        "packets_degraded": _dist(degraded),
        "blast_radius": _dist(blast),
        "cores_affected": sorted(cores_affected),
        "unrecoverable_cores": sorted(dead_unrecoverable),
    }

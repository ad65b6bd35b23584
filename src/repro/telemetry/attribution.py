"""Per-core attribution: where did every busy nanosecond go?

Splits a counters snapshot (``SystemCounters.snapshot()``, the dict every
run artifact stores under ``metrics.counters``) into the Appendix A cost
components, per core:

* ``d``  — dispatch time (driver/framework labor),
* ``c1`` — current-packet compute (program work minus fast-forward),
* ``(k-1)·c2`` — history fast-forward time,
* ``contention`` — lock/atomic waiting plus cross-core line transfers.

``history_ns`` carves ``(k-1)·c2`` out of ``compute_ns``, so coverage —
the fraction of busy time the four components explain — is 1.0 by
construction for the built-in engines; the figure is still computed and
reported so a future engine that charges time outside the buckets shows
up as a coverage drop, not silent misattribution.

This is the only code that turns a snapshot into a per-core split: the
bench ``profile`` block and ``scr-repro inspect`` both render it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

__all__ = ["CoreAttribution", "RunAttribution", "attribution_from_snapshot"]


@dataclass
class CoreAttribution:
    """One core's busy time split into the Appendix A components (ns)."""

    core_id: int
    packets: int
    dispatch_ns: float  # d
    current_compute_ns: float  # c1 (incl. in-program memory effects)
    history_ns: float  # (k-1)·c2 fast-forward
    contention_ns: float  # lock waits + cache-line transfers
    busy_ns: float
    utilization: float = 0.0

    @property
    def attributed_ns(self) -> float:
        return (self.dispatch_ns + self.current_compute_ns
                + self.history_ns + self.contention_ns)

    @property
    def coverage(self) -> float:
        """Fraction of busy time the four components explain."""
        if self.busy_ns <= 0:
            return 1.0
        return self.attributed_ns / self.busy_ns

    def shares(self) -> Tuple[float, float, float, float]:
        """(d, c1, (k-1)·c2, contention) as fractions of busy time."""
        parts = (self.dispatch_ns, self.current_compute_ns,
                 self.history_ns, self.contention_ns)
        if self.busy_ns <= 0:
            return (0.0, 0.0, 0.0, 0.0)
        return tuple(ns / self.busy_ns for ns in parts)

    def to_dict(self) -> dict:
        return {
            "core_id": self.core_id,
            "packets": self.packets,
            "dispatch_ns": self.dispatch_ns,
            "current_compute_ns": self.current_compute_ns,
            "history_ns": self.history_ns,
            "contention_ns": self.contention_ns,
            "busy_ns": self.busy_ns,
            "utilization": self.utilization,
            "coverage": self.coverage,
        }


@dataclass
class RunAttribution:
    """Per-core attributions plus the aggregate coverage figure."""

    cores: List[CoreAttribution] = field(default_factory=list)
    duration_ns: float = 0.0

    @property
    def total_busy_ns(self) -> float:
        return sum(c.busy_ns for c in self.cores)

    @property
    def coverage(self) -> float:
        busy = self.total_busy_ns
        if busy <= 0:
            return 1.0
        return sum(c.attributed_ns for c in self.cores) / busy

    def totals(self) -> dict:
        return {
            "packets": sum(c.packets for c in self.cores),
            "dispatch_ns": sum(c.dispatch_ns for c in self.cores),
            "current_compute_ns": sum(c.current_compute_ns for c in self.cores),
            "history_ns": sum(c.history_ns for c in self.cores),
            "contention_ns": sum(c.contention_ns for c in self.cores),
            "busy_ns": self.total_busy_ns,
            "coverage": self.coverage,
        }

    def to_dict(self) -> dict:
        return {
            "duration_ns": self.duration_ns,
            "cores": [c.to_dict() for c in self.cores],
            "totals": self.totals(),
        }


def _core_from_snapshot(core: dict, duration_ns: float) -> CoreAttribution:
    busy = core.get("busy_ns", 0.0)
    compute = core.get("compute_ns", 0.0)
    history = core.get("history_ns", 0.0)
    return CoreAttribution(
        core_id=core.get("core_id", 0),
        packets=core.get("packets", 0),
        dispatch_ns=core.get("dispatch_ns", 0.0),
        current_compute_ns=compute - history,
        history_ns=history,
        contention_ns=core.get("wait_ns", 0.0) + core.get("transfer_ns", 0.0),
        busy_ns=busy,
        utilization=(min(1.0, busy / duration_ns) if duration_ns > 0 else 0.0),
    )


def attribution_from_snapshot(
    snapshot: dict, duration_ns: float = 0.0
) -> RunAttribution:
    """Attribution from a ``SystemCounters.snapshot()`` dict — live, or
    reloaded from a run artifact's ``metrics.counters``.  ``duration_ns``
    (the run's simulated duration) only feeds ``utilization``."""
    return RunAttribution(
        cores=[_core_from_snapshot(c, duration_ns)
               for c in snapshot.get("cores", [])],
        duration_ns=duration_ns,
    )

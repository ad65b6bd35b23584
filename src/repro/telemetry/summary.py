"""One run summary: the facts ``inspect`` and ``report`` both render.

:meth:`RunSummary.from_artifact` is the only code that reads a manifest's
``event_type_counts``, ``slo`` and ``metrics`` sections.  It shape-checks
every field it reads, so a malformed manifest raises one ValueError naming
the field, and returns plain data: the header, drop causes ranked once,
fault counts and recovery details, SLO distributions, the per-core
:class:`~.attribution.RunAttribution`, the trace-cache and placement
counters, latency percentiles and the registry's scalars.  ``inspect``
renders it as text (:mod:`.inspect`), ``report`` as HTML
(:mod:`repro.obs.report`).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from .artifact import JSON_NUMBER, MANIFEST_NAME, RunArtifact, json_field, json_typed
from .attribution import RunAttribution, attribution_from_snapshot

__all__ = ["RunSummary", "fmt_ns", "load_run"]

#: Event kinds that represent a lost packet: kind -> (short label, meaning).
_DROP_KINDS = {
    "nic.wire_drop": ("wire saturated", "wire saturated (MAC FIFO overflow)"),
    "nic.ring_drop": ("RX ring full", "RX ring full (core lagged)"),
    "nic.pcie_drop": ("PCIe saturated", "host interconnect saturated (PCIe)"),
    #: written by artifacts from before fault drops replaced it
    "sim.injected_loss": ("injected loss", "injected loss (sequencer->core)"),
    "fault.drop": ("fault: wire→ring drop", "injected wire→ring drop"),
    "fault.pop_drop": ("fault: ring-pop drop", "injected ring-pop drop"),
}

#: Injected-fault and recovery event kinds (repro.faults), display order.
_FAULT_KINDS = {
    "fault.drop": "injected wire→ring drop",
    "fault.pop_drop": "injected ring-pop drop",
    "fault.duplicate": "injected duplicate delivery",
    "fault.reorder": "injected in-ring reorder",
    "fault.truncate": "injected history truncation",
    "fault.stall": "injected core stall",
    "fault.kill": "injected core kill",
    "fault.divergence": "replica divergence flagged",
    "recovery.quarantine": "replica quarantined (history gap)",
    "recovery.resync": "replica resynchronized from checkpoint",
    "recovery.unrecoverable": "resync impossible (log gap)",
}

#: SLO measures in display order: (label, slo key, measured in ns).
_SLO_MEASURES = (
    ("time to detect", "ttd_ns", True),
    ("time to repair", "ttr_ns", True),
    ("packets degraded", "packets_degraded", False),
    ("blast radius", "blast_radius", False),
)

#: Placement/tenancy counters ``_record_point`` folds for hybrid runs
#: (metric base name -> meaning); instance names carry a ``{...}`` label
#: suffix identifying the scenario point.
_PLACEMENT_METRICS = {
    "placement_promotions": "flows promoted to the SCR path",
    "placement_demotions": "flows demoted back to RSS sharding",
    "placement_migrations": "migration handoffs (cost charged in-band)",
    "placement_tenant_quota_drops_total": "state entries refused by tenant quota",
    "placement_statemap_grow_events": "sharded state-map growth events",
}

_CACHE_COUNTERS = ("trace_cache_hits", "trace_cache_misses",
                   "trace_cache_corrupt_evictions")

#: Per-core snapshot fields the attribution table reads.
_CORE_FIELDS = ("core_id", "packets", "busy_ns", "compute_ns", "history_ns",
                "dispatch_ns", "wait_ns", "transfer_ns", "ipc", "l2_hit_ratio")

DropCause = namedtuple("DropCause", "kind count label meaning")
#: ``values`` is (p50, p99, max, mean), empty when ``count`` is 0.
SloMeasure = namedtuple("SloMeasure", "label count values in_ns")
#: ``gaps`` is the non-zero gap outcomes as ``"name=count, ..."``.
SloSummary = namedtuple("SloSummary", "schema gaps measures unrecoverable_cores")
Divergence = namedtuple("Divergence", "index cores blast_radius")


def fmt_ns(value: float) -> str:
    """A nanosecond quantity at a readable scale (ns, us or ms)."""
    if value >= 1e6:
        return f"{value / 1e6:.2f} ms"
    if value >= 1e3:
        return f"{value / 1e3:.2f} us"
    return f"{value:.0f} ns"


@dataclass
class RunSummary:
    """Everything ``inspect`` and ``report`` say about one run artifact."""

    command: str
    git_sha: str
    created_utc: str
    config: str  # "key=value, ..." in key order; "" when none was recorded
    events_emitted: int
    events_retained: int
    event_types: int
    drops: List[DropCause]  # non-zero causes, most frequent first
    faults: List[Tuple[str, int, str]]  # (kind, count, meaning)
    scalars: List[Tuple[str, float]]  # every counter and gauge, by name
    first_divergence: Optional[Divergence] = None
    resyncs: List[Tuple[int, int, int]] = field(default_factory=list)  # (core, rounds, replayed)
    unrecoverable: List[int] = field(default_factory=list)
    slo: Optional[SloSummary] = None
    slo_not_recorded: bool = False  # fault events but no slo section
    cache: Optional[Tuple[int, ...]] = None  # hits, misses, evictions
    placement: List[Tuple[str, float, str]] = field(default_factory=list)
    placement_not_recorded: bool = False  # a hybrid run without the counters
    latency: List[Tuple[str, float]] = field(default_factory=list)
    attribution: Optional[RunAttribution] = None
    core_ipc_l2: List[Tuple[float, float]] = field(default_factory=list)
    totals: Optional[Tuple[float, ...]] = None  # packets, busy, latency

    @classmethod
    def from_artifact(cls, artifact: RunArtifact,
                      events: List[dict]) -> "RunSummary":
        """Summarize a loaded manifest and its checked event log; raises
        ValueError naming the first field whose JSON type is wrong."""
        counts = artifact.event_type_counts
        for kind, count in counts.items():
            json_typed(count, (int,), f"event_type_counts.{kind}")
        registry = json_field(artifact.metrics, "registry", {}, (dict,), "metrics")
        scalars: List[Tuple[str, float]] = []
        counters: Dict[str, float] = {}
        for name, inst in sorted(registry.items()):
            json_typed(inst, (dict,), f"metrics.registry.{name}")
            if inst.get("type") in ("counter", "gauge"):
                value = json_field(inst, "value", None, JSON_NUMBER,
                                   f"metrics.registry.{name}")
                scalars.append((name, value))
                if inst["type"] == "counter":
                    counters[name] = value
        summary = cls(
            command=artifact.command,
            git_sha=artifact.git_sha,
            created_utc=artifact.created_utc,
            config=", ".join(f"{k}={v}"
                             for k, v in sorted(artifact.config.items())),
            events_emitted=artifact.events_emitted,
            events_retained=artifact.events_retained,
            event_types=len(counts),
            drops=sorted((DropCause(kind, counts[kind], *_DROP_KINDS[kind])
                          for kind in _DROP_KINDS if counts.get(kind, 0) > 0),
                         key=lambda d: (-d.count, d.kind)),
            faults=[(kind, counts[kind], meaning)
                    for kind, meaning in _FAULT_KINDS.items()
                    if counts.get(kind, 0) > 0],
            scalars=scalars,
        )
        summary._read_recovery(events)
        summary._read_slo(artifact.slo, counts)
        if all(name in counters for name in _CACHE_COUNTERS):
            summary.cache = tuple(int(counters[n]) for n in _CACHE_COUNTERS)
        summary.placement = [
            (name, value, _PLACEMENT_METRICS[name.split("{", 1)[0]])
            for name, value in counters.items()
            if name.split("{", 1)[0] in _PLACEMENT_METRICS
        ]
        summary.placement_not_recorded = not summary.placement and any(
            "hybrid" in str(artifact.config.get(key, ""))
            for key in ("technique", "techniques"))
        summary._read_latency(artifact.metrics, registry)
        summary._read_counters(artifact.metrics)
        return summary

    def _read_recovery(self, events: List[dict]) -> None:
        """Divergence/recovery detail mined from the retained event log."""
        rounds: Dict[int, int] = {}
        replayed: Dict[int, int] = {}
        unrecoverable: Set[int] = set()
        for i, event in enumerate(events):
            kind, where = event.get("kind"), f"events[{i}]"
            if kind == "fault.divergence" and self.first_divergence is None:
                cores = json_field(event, "cores", [], (list,), where)
                self.first_divergence = Divergence(
                    event.get("index", "?"), cores,
                    event.get("blast_radius", len(cores)))
            elif kind == "recovery.resync":
                core = int(json_field(event, "core", -1, JSON_NUMBER, where))
                rounds[core] = rounds.get(core, 0) + 1
                replayed[core] = replayed.get(core, 0) + int(
                    json_field(event, "replayed", 0, JSON_NUMBER, where))
            elif kind == "recovery.unrecoverable":
                unrecoverable.add(int(json_field(event, "core", -1, JSON_NUMBER, where)))
        self.resyncs = [(core, n, replayed[core])
                        for core, n in sorted(rounds.items())]
        self.unrecoverable = sorted(unrecoverable)

    def _read_slo(self, slo: Optional[dict], counts: dict) -> None:
        if slo is None:
            self.slo_not_recorded = any(
                k.startswith(("fault.", "recovery.")) for k in counts)
            return
        gaps = json_field(slo, "gaps", {}, (dict,), "slo")
        measures = []
        for label, key, in_ns in _SLO_MEASURES:
            dist = json_field(slo, key, {}, (dict,), "slo")
            count = json_field(dist, "count", 0, (int,), f"slo.{key}")
            values = tuple(json_field(dist, stat, None, JSON_NUMBER, f"slo.{key}")
                           for stat in ("p50", "p99", "max", "mean")) if count else ()
            measures.append(SloMeasure(label, count, values, in_ns))
        self.slo = SloSummary(
            json_field(slo, "schema", "?", (str,), "slo"),
            ", ".join(f"{k}={gaps[k]}" for k in sorted(gaps) if gaps[k]),
            measures,
            json_field(slo, "unrecoverable_cores", [], (list,), "slo"),
        )

    def _read_latency(self, metrics: dict, registry: dict) -> None:
        latency, where = metrics.get("latency_ns"), "metrics.latency_ns"
        if latency is None:
            hist = registry.get("latency_ns")
            if hist and hist.get("type") == "histogram":
                latency = hist.get("percentiles")
                where = "metrics.registry.latency_ns.percentiles"
        json_typed(latency, (dict, type(None)), where)
        self.latency = [(key, json_typed(value, JSON_NUMBER, f"{where}.{key}"))
                        for key, value in sorted((latency or {}).items())]

    def _read_counters(self, metrics: dict) -> None:
        """The per-core attribution of the counters snapshot, if any."""
        where = "metrics.counters"
        counters = json_field(metrics, "counters", None, (dict, type(None)), "metrics")
        cores = json_field(counters, "cores", [], (list,), where) if counters else []
        if not cores:
            return
        for i, snap in enumerate(cores):
            json_typed(snap, (dict,), f"{where}.cores[{i}]")
            for key in _CORE_FIELDS:
                json_field(snap, key, 0, JSON_NUMBER, f"{where}.cores[{i}]")
        self.attribution = attribution_from_snapshot(counters)
        self.core_ipc_l2 = [(snap.get("ipc", 0.0), snap.get("l2_hit_ratio", 1.0))
                            for snap in cores]
        totals = json_field(counters, "totals", None, (dict, type(None)), where)
        if totals:
            self.totals = tuple(
                json_field(totals, key, 0, JSON_NUMBER, f"{where}.totals")
                for key in ("packets", "busy_ns", "mean_compute_latency_ns"))


def load_run(directory: Union[str, Path]) -> Tuple[RunSummary, List[dict]]:
    """The summary and checked event log of an artifact directory (or its
    ``manifest.json``); a malformed manifest raises ValueError naming the
    file and field, a mismatched log :class:`~.artifact.EventLogError`."""
    artifact = RunArtifact.load(directory)
    events = artifact.read_events(directory)
    try:
        return RunSummary.from_artifact(artifact, events), events
    except ValueError as exc:
        path = Path(directory)
        raise ValueError(f"{path / MANIFEST_NAME if path.is_dir() else path}: "
                         f"{exc}") from None

"""Artifact inspection: the ``scr-repro inspect`` summary renderer.

Reads a run-artifact directory (manifest + event log) and answers the three
questions a wrong MLFFR point or a recovery stall raises first:

1. **where did packets go** — drop/loss event counts by cause;
2. **what faults fired** — injected-fault counts by kind, the first
   divergence the monitor flagged, and quarantine/resync outcomes
   (instrumented ``repro.faults`` runs only; older artifacts simply
   have no such events and skip the section), plus the recovery SLO
   distributions (time-to-detect, time-to-repair, packets degraded,
   blast radius) when the manifest carries an ``slo`` section;
3. **how long did packets take** — latency percentiles from the histogram
   metrics snapshot;
4. **where did core time go** — per-core dispatch/compute/wait/transfer
   attribution (the Fig. 8 split) from the counters snapshot.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .artifact import RunArtifact
from .events import (
    EV_DIVERGENCE,
    EV_QUARANTINE,
    EV_RESYNC,
    EV_UNRECOVERABLE,
)

__all__ = ["summarize_artifact"]

#: Event kinds that represent a lost packet, in "top causes" order.
_DROP_KINDS = {
    "nic.wire_drop": "wire saturated (MAC FIFO overflow)",
    "nic.ring_drop": "RX ring full (core lagged)",
    "nic.pcie_drop": "host interconnect saturated (PCIe)",
    #: written by artifacts from before fault drops replaced it
    "sim.injected_loss": "injected loss (sequencer->core)",
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
    EV_DIVERGENCE: "replica divergence flagged",
    EV_QUARANTINE: "replica quarantined (history gap)",
    EV_RESYNC: "replica resynchronized from checkpoint",
    EV_UNRECOVERABLE: "resync impossible (log gap)",
}


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> List[str]:
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    head = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines = [head, "-" * len(head)]
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return lines


def _fmt_ns(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.2f} ms"
    if value >= 1e3:
        return f"{value / 1e3:.2f} us"
    return f"{value:.0f} ns"


def _fault_event_details(events: List[dict]) -> List[str]:
    """Divergence/recovery detail mined from the retained event log."""
    first_divergence: Optional[dict] = None
    resyncs_by_core: Dict[int, int] = {}
    replayed_by_core: Dict[int, int] = {}
    unrecoverable: List[int] = []
    for event in events:
        kind = event.get("kind")
        if kind == EV_DIVERGENCE and first_divergence is None:
            first_divergence = event
        elif kind == EV_RESYNC:
            core = int(event.get("core", -1))
            resyncs_by_core[core] = resyncs_by_core.get(core, 0) + 1
            replayed_by_core[core] = (
                replayed_by_core.get(core, 0) + int(event.get("replayed", 0))
            )
        elif kind == EV_UNRECOVERABLE:
            unrecoverable.append(int(event.get("core", -1)))
    lines: List[str] = []
    if first_divergence is not None:
        cores = first_divergence.get("cores", [])
        lines.append(
            f"first divergence: packet index "
            f"{first_divergence.get('index', '?')}, "
            f"core(s) {', '.join(str(c) for c in cores) or '?'} "
            f"(blast radius {first_divergence.get('blast_radius', len(cores))})"
        )
    if resyncs_by_core:
        per_core = ", ".join(
            f"core {core}: {rounds} round(s), "
            f"{replayed_by_core.get(core, 0)} pkts replayed"
            for core, rounds in sorted(resyncs_by_core.items())
        )
        lines.append(f"recovery rounds: {per_core}")
    if unrecoverable:
        lines.append(
            "unrecoverable cores: "
            + ", ".join(str(c) for c in sorted(set(unrecoverable)))
        )
    return lines


def _fault_section(artifact: RunArtifact, events: List[dict]) -> List[str]:
    """The fault/divergence/recovery summary; [] when the run had none."""
    counts = [
        (kind, artifact.event_type_counts.get(kind, 0), meaning)
        for kind, meaning in _FAULT_KINDS.items()
        if artifact.event_type_counts.get(kind, 0) > 0
    ]
    if not counts:
        return []
    lines = ["", "fault injection & recovery:"]
    lines.extend(_table(
        ["event", "count", "meaning"],
        [[k, c, meaning] for k, c, meaning in counts],
    ))
    lines.extend(_fault_event_details(events))
    return lines


def _slo_section(artifact: RunArtifact) -> List[str]:
    """Recovery SLO distributions from the manifest's ``slo`` section.

    Artifacts written before the section existed get a one-line note (and
    a zero exit) instead of an error — inspect must stay usable on every
    artifact the repo has ever produced.
    """
    slo = artifact.slo
    if slo is None:
        if any(k.startswith(("fault.", "recovery."))
               for k in artifact.event_type_counts):
            return [
                "",
                "recovery SLOs: not recorded "
                "(artifact predates the slo section; re-run to compute)",
            ]
        return []
    lines = ["", f"recovery SLOs ({slo.get('schema', '?')}):"]
    gaps = slo.get("gaps", {})
    lines.append(
        "  gaps: "
        + ", ".join(f"{k}={gaps[k]}" for k in sorted(gaps) if gaps[k])
    )
    dists = [
        ("time to detect", slo.get("ttd_ns", {}), _fmt_ns),
        ("time to repair", slo.get("ttr_ns", {}), _fmt_ns),
        ("packets degraded", slo.get("packets_degraded", {}),
         lambda v: f"{v:g}"),
        ("blast radius", slo.get("blast_radius", {}), lambda v: f"{v:g}"),
    ]
    rows = []
    for label, dist, fmt in dists:
        if dist.get("count", 0):
            rows.append([
                label, dist["count"], fmt(dist["p50"]), fmt(dist["p99"]),
                fmt(dist["max"]), fmt(dist["mean"]),
            ])
        else:
            rows.append([label, 0, "-", "-", "-", "-"])
    lines.extend(_table(
        ["measure", "count", "p50", "p99", "max", "mean"], rows,
    ))
    if slo.get("unrecoverable_cores"):
        lines.append(
            "  unrecoverable cores: "
            + ", ".join(str(c) for c in slo["unrecoverable_cores"])
        )
    return lines


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


def _placement_section(artifact: RunArtifact) -> List[str]:
    """Elephant/mice placement counters, for hybrid-technique runs.

    Purebred runs (and artifacts that predate ``repro.placement``) have
    no such counters and skip the section silently; a *hybrid* run whose
    artifact lacks them gets a one-line note (and a zero exit) instead
    of an error, like the slo and cache sections.
    """
    registry = artifact.metrics.get("registry", {})
    rows = []
    for name, inst in sorted(registry.items()):
        base = name.split("{", 1)[0]
        if base not in _PLACEMENT_METRICS:
            continue
        if not isinstance(inst, dict) or inst.get("type") != "counter":
            continue
        rows.append([name, f"{inst.get('value', 0):g}",
                     _PLACEMENT_METRICS[base]])
    if not rows:
        techniques = {
            str(artifact.config.get(key, ""))
            for key in ("technique", "techniques")
        }
        if any("hybrid" in t for t in techniques):
            return [
                "",
                "placement: counters not recorded (artifact predates "
                "placement telemetry; re-run to record)",
            ]
        return []
    lines = ["", "placement & tenancy (hybrid runs, at the reported rate):"]
    lines.extend(_table(["metric", "value", "meaning"], rows))
    return lines


def _cache_section(artifact: RunArtifact) -> List[str]:
    """TraceCache hit/miss/corrupt-evict counters, when recorded.

    Runs that predate the counters — or ran without ``--cache-dir`` —
    get a one-line note (and a zero exit), like the slo section.
    """
    registry = artifact.metrics.get("registry", {})
    names = ("trace_cache_hits", "trace_cache_misses",
             "trace_cache_corrupt_evictions")
    values = {}
    for name in names:
        inst = registry.get(name)
        if not isinstance(inst, dict) or inst.get("type") != "counter":
            return [
                "",
                "trace cache: counters not recorded (run without "
                "--cache-dir, or artifact predates them)",
            ]
        values[name] = int(inst.get("value", 0))
    hits = values["trace_cache_hits"]
    misses = values["trace_cache_misses"]
    evictions = values["trace_cache_corrupt_evictions"]
    total = hits + misses
    rate = f"{hits / total:.0%} hit rate" if total else "no lookups"
    return [
        "",
        f"trace cache: {hits} hits, {misses} misses ({rate}), "
        f"{evictions} corrupt evictions",
    ]


def summarize_artifact(directory: Union[str, Path]) -> str:
    """Render a human-readable summary of an artifact directory.

    Raises :class:`~repro.telemetry.artifact.EventLogError` when the event
    log does not match the manifest.
    """
    artifact = RunArtifact.load(directory)
    events = artifact.read_events(directory)
    lines: List[str] = []
    lines.append(f"artifact: {Path(directory)}")
    lines.append(f"command:  {artifact.command}")
    lines.append(f"git sha:  {artifact.git_sha}")
    lines.append(f"created:  {artifact.created_utc}")
    if artifact.config:
        cfg = ", ".join(f"{k}={v}" for k, v in sorted(artifact.config.items()))
        lines.append(f"config:   {cfg}")
    lines.append(
        f"events:   {artifact.events_emitted} emitted, "
        f"{artifact.events_retained} retained "
        f"({len(artifact.event_type_counts)} types)"
    )

    # 1. top drop causes ------------------------------------------------------
    drops = [
        (kind, count, _DROP_KINDS.get(kind, kind))
        for kind, count in sorted(
            artifact.event_type_counts.items(), key=lambda kv: -kv[1]
        )
        if kind in _DROP_KINDS and count > 0
    ]
    lines.append("")
    if drops:
        lines.append("top drop causes:")
        lines.extend(_table(
            ["event", "count", "meaning"],
            [[k, c, meaning] for k, c, meaning in drops],
        ))
    else:
        lines.append("top drop causes: none recorded (loss-free run)")

    # 2. fault injection & recovery ------------------------------------------
    lines.extend(_fault_section(artifact, events))

    # 2b. recovery SLO distributions -----------------------------------------
    lines.extend(_slo_section(artifact))

    # 2c. trace-cache effectiveness ------------------------------------------
    lines.extend(_cache_section(artifact))

    # 2d. elephant/mice placement & tenancy ----------------------------------
    lines.extend(_placement_section(artifact))

    # 3. latency percentiles --------------------------------------------------
    latency = artifact.metrics.get("latency_ns")
    if latency is None:
        hist = artifact.metrics.get("registry", {}).get("latency_ns")
        if hist and hist.get("type") == "histogram":
            latency = hist.get("percentiles")
    if latency:
        lines.append("")
        lines.append("per-packet latency (arrival -> service completion):")
        lines.extend(_table(
            ["percentile", "latency"],
            [[key, _fmt_ns(value)] for key, value in sorted(latency.items())],
        ))

    # 4. per-core time attribution -------------------------------------------
    counters = artifact.metrics.get("counters")
    if counters and counters.get("cores"):
        lines.append("")
        lines.append("per-core time attribution (at the reported rate):")
        rows = []
        for c in counters["cores"]:
            busy = c.get("busy_ns", 0.0) or 1.0
            rows.append([
                c.get("core_id", "?"),
                c.get("packets", 0),
                f"{100 * c.get('dispatch_ns', 0) / busy:.1f}%",
                f"{100 * c.get('compute_ns', 0) / busy:.1f}%",
                f"{100 * c.get('wait_ns', 0) / busy:.1f}%",
                f"{100 * c.get('transfer_ns', 0) / busy:.1f}%",
                _fmt_ns(c.get("busy_ns", 0.0)),
                f"{c.get('ipc', 0.0):.2f}",
                f"{100 * c.get('l2_hit_ratio', 1.0):.1f}%",
            ])
        lines.extend(_table(
            ["core", "packets", "dispatch", "compute", "wait", "transfer",
             "busy", "IPC", "L2 hit"],
            rows,
        ))
        totals = counters.get("totals")
        if totals:
            lines.append(
                f"totals: {totals.get('packets', 0)} packets, "
                f"busy {_fmt_ns(totals.get('busy_ns', 0.0))}, "
                f"mean compute latency "
                f"{_fmt_ns(totals.get('mean_compute_latency_ns', 0.0))}"
            )

    # 5. the rest of the registry --------------------------------------------
    registry = artifact.metrics.get("registry", {})
    scalars = [
        (name, inst["value"])
        for name, inst in sorted(registry.items())
        if inst.get("type") in ("counter", "gauge")
    ]
    if scalars:
        lines.append("")
        lines.append("metrics:")
        lines.extend(_table(
            ["name", "value"],
            [[n, f"{v:g}"] for n, v in scalars],
        ))
    return "\n".join(lines)

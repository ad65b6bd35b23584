"""``scr-repro inspect``: a run artifact's :class:`~.summary.RunSummary` as text.

It answers what a wrong MLFFR point or a recovery stall raises first:
where packets went (drops by cause), what faults fired (counts, first
divergence, resyncs, recovery SLOs), how long packets took (latency
percentiles) and where core time went (the d / c1 / (k-1)·c2 /
contention split).  Sections an older artifact cannot fill get a
one-line note instead of an error.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Sequence, Union

from .summary import RunSummary, fmt_ns, load_run

__all__ = ["summarize_artifact", "text_table"]


def text_table(headers: Sequence[str],
               rows: Iterable[Sequence[object]]) -> List[str]:
    """An aligned monospace table, one string per line."""
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


def _fault_section(summary: RunSummary) -> List[str]:
    if not summary.faults:
        return []
    lines = ["", "fault injection & recovery:"]
    lines.extend(text_table(["event", "count", "meaning"], summary.faults))
    first = summary.first_divergence
    if first is not None:
        cores = ", ".join(str(c) for c in first.cores) or "?"
        lines.append(f"first divergence: packet index {first.index}, "
                     f"core(s) {cores} (blast radius {first.blast_radius})")
    if summary.resyncs:
        lines.append("recovery rounds: " + ", ".join(
            f"core {core}: {rounds} round(s), {replayed} pkts replayed"
            for core, rounds, replayed in summary.resyncs))
    if summary.unrecoverable:
        lines.append("unrecoverable cores: "
                     + ", ".join(str(c) for c in summary.unrecoverable))
    return lines


def _slo_section(summary: RunSummary) -> List[str]:
    slo = summary.slo
    if slo is None:
        return ["", "recovery SLOs: not recorded (artifact predates the slo "
                "section; re-run to compute)"] if summary.slo_not_recorded else []
    rows = []
    for m in slo.measures:
        fmt = fmt_ns if m.in_ns else (lambda v: f"{v:g}")
        rows.append([m.label, m.count,
                     *(map(fmt, m.values) if m.count else ["-"] * 4)])
    lines = ["", f"recovery SLOs ({slo.schema}):", f"  gaps: {slo.gaps}"]
    lines.extend(text_table(["measure", "count", "p50", "p99", "max", "mean"], rows))
    if slo.unrecoverable_cores:
        lines.append("  unrecoverable cores: "
                     + ", ".join(str(c) for c in slo.unrecoverable_cores))
    return lines


def _cache_and_placement(summary: RunSummary) -> List[str]:
    if summary.cache is None:
        lines = ["", "trace cache: counters not recorded (run without "
                 "--cache-dir, or artifact predates them)"]
    else:
        hits, misses, evictions = summary.cache
        total = hits + misses
        rate = f"{hits / total:.0%} hit rate" if total else "no lookups"
        lines = ["", f"trace cache: {hits} hits, {misses} misses ({rate}), "
                 f"{evictions} corrupt evictions"]
    if summary.placement_not_recorded:
        lines += ["", "placement: counters not recorded (artifact predates "
                  "placement telemetry; re-run to record)"]
    elif summary.placement:
        lines += ["", "placement & tenancy (hybrid runs, at the reported rate):"]
        lines.extend(text_table(["metric", "value", "meaning"], [
            [name, f"{value:g}", meaning]
            for name, value, meaning in summary.placement]))
    return lines


def _attribution_section(summary: RunSummary) -> List[str]:
    if summary.attribution is None:
        return []
    lines = ["", "per-core time attribution (share of busy, at the reported rate):"]
    lines.extend(text_table(
        ["core", "packets", "d", "c1", "(k-1)·c2", "contention",
         "busy", "IPC", "L2 hit"],
        [[core.core_id, core.packets,
          *(f"{100 * share:.1f}%" for share in core.shares()),
          fmt_ns(core.busy_ns), f"{ipc:.2f}", f"{100 * l2_hit:.1f}%"]
         for core, (ipc, l2_hit) in zip(summary.attribution.cores,
                                        summary.core_ipc_l2)],
    ))
    if summary.totals:
        packets, busy_ns, latency_ns = summary.totals
        lines.append(f"totals: {packets} packets, busy {fmt_ns(busy_ns)}, "
                     f"mean compute latency {fmt_ns(latency_ns)}")
    return lines


def summarize_artifact(directory: Union[str, Path]) -> str:
    """Render a human-readable summary of an artifact directory.

    Raises ValueError naming the file and field for a malformed manifest,
    and :class:`~repro.telemetry.artifact.EventLogError` when the event
    log does not match the manifest.
    """
    summary, _ = load_run(directory)
    lines = [
        f"artifact: {Path(directory)}",
        f"command:  {summary.command}",
        f"git sha:  {summary.git_sha}",
        f"created:  {summary.created_utc}",
    ]
    if summary.config:
        lines.append(f"config:   {summary.config}")
    lines.append(f"events:   {summary.events_emitted} emitted, "
                 f"{summary.events_retained} retained "
                 f"({summary.event_types} types)")
    # injected drops are listed with the faults
    drops = [[d.kind, d.count, d.meaning] for d in summary.drops
             if not d.kind.startswith("fault.")]
    lines.append("")
    if drops:
        lines.append("top drop causes:")
        lines.extend(text_table(["event", "count", "meaning"], drops))
    else:
        lines.append("top drop causes: none recorded (loss-free run)")
    lines.extend(_fault_section(summary))
    lines.extend(_slo_section(summary))
    lines.extend(_cache_and_placement(summary))
    if summary.latency:
        lines += ["", "per-packet latency (arrival -> service completion):"]
        lines.extend(text_table(["percentile", "latency"], [
            [key, fmt_ns(value)] for key, value in summary.latency]))
    lines.extend(_attribution_section(summary))
    if summary.scalars:
        lines += ["", "metrics:"]
        lines.extend(text_table(["name", "value"], [
            [n, f"{v:g}"] for n, v in summary.scalars]))
    return "\n".join(lines)

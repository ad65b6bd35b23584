"""``scr-repro report``: one self-contained HTML dashboard per repo state.

Renders any mix of telemetry artifact directories (``manifest.json`` +
``events.jsonl``), ``BENCH_*.json`` suite artifacts, and host-profile
artifacts (``hostprof.json`` from ``scr-repro profile``/``--hostprof``)
into a single HTML file with no external assets: inline CSS, inline SVG,
no scripts.  The sections mirror what the text tools answer one at a
time — drop-cause Pareto (``inspect`` question 1), recovery SLO table
(question 2), per-core span waterfalls for sampled packets, the suite's
MLFFR curves, and the host wall-clock panel (phase Pareto + an icicle
flamegraph of the PhaseClock tree).

Byte determinism is a contract, not an accident: rendering is a pure
function of the input bytes (sorted iteration everywhere, fixed-precision
formatting, no wall clock), so the same artifacts produce the same HTML in
any process — CI ``cmp``-checks the serial vs ``--jobs 2`` renders.
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..hostprof.artifact import HOSTPROF_JSON, HostProfile
from ..hostprof.clock import PATH_SEP
from ..telemetry.artifact import MANIFEST_NAME, RunArtifact
from .spans import SPAN_PREFIX

__all__ = ["classify_inputs", "render_report", "write_report"]

#: Waterfalls rendered per artifact (the rest are counted, not drawn).
MAX_WATERFALLS = 8

_BENCH_SCHEMA_PREFIX = "scr-repro/bench-artifact/"
_HOSTPROF_SCHEMA_PREFIX = "scr-repro/hostprof/"

#: Drop/loss kinds in Pareto candidacy order (label per kind).
_DROP_LABELS: Mapping[str, str] = MappingProxyType({
    "nic.wire_drop": "wire saturated",
    "nic.ring_drop": "RX ring full",
    "nic.pcie_drop": "PCIe saturated",
    "sim.injected_loss": "injected loss",
    "fault.drop": "fault: wire→ring drop",
    "fault.pop_drop": "fault: ring-pop drop",
})

#: Fixed series palette (cycled); chosen for white backgrounds.
_PALETTE = ("#2563eb", "#dc2626", "#16a34a", "#9333ea", "#ea580c", "#0891b2")

_CSS = """\
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto;
       max-width: 960px; color: #1f2430; padding: 0 1em; }
h1 { font-size: 1.5em; border-bottom: 2px solid #2563eb; padding-bottom: .2em; }
h2 { font-size: 1.2em; margin-top: 2em; }
h3 { font-size: 1em; margin-bottom: .3em; }
table { border-collapse: collapse; margin: .5em 0; }
th, td { border: 1px solid #cbd5e1; padding: .25em .6em; text-align: left; }
th { background: #eef2ff; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.note { color: #6b7280; font-style: italic; }
.bar { fill: #2563eb; }
svg text { font: 11px system-ui, sans-serif; fill: #374151; }
"""


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: float) -> str:
    """Fixed-precision number rendering (deterministic across platforms)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def _fmt_ns(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.2f} ms"
    if value >= 1e3:
        return f"{value / 1e3:.2f} us"
    return f"{value:.0f} ns"


def classify_inputs(
    inputs: Sequence[Union[str, Path]],
) -> Tuple[List[Path], List[Path], List[Path]]:
    """Split inputs into (artifact dirs, bench files, hostprof files).

    A directory must hold a ``manifest.json`` (telemetry artifact) or a
    ``hostprof.json`` (host-profile artifact — resolved to that file); a
    file must carry a bench or hostprof schema.  Anything else raises
    ValueError — a misspelled path should fail loudly, not render an
    empty report.
    """
    artifact_dirs: List[Path] = []
    bench_files: List[Path] = []
    hostprof_files: List[Path] = []
    for raw in inputs:
        path = Path(raw)
        if path.is_dir():
            if (path / MANIFEST_NAME).is_file():
                artifact_dirs.append(path)
            elif (path / HOSTPROF_JSON).is_file():
                hostprof_files.append(path / HOSTPROF_JSON)
            else:
                raise ValueError(
                    f"{path}: directory has no {MANIFEST_NAME} or "
                    f"{HOSTPROF_JSON} (not a telemetry or host-profile "
                    "artifact)"
                )
        elif path.is_file():
            with path.open() as fh:
                try:
                    data = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}: not valid JSON ({exc})") from exc
            schema = str(data.get("schema", ""))
            if schema.startswith(_BENCH_SCHEMA_PREFIX):
                bench_files.append(path)
            elif schema.startswith(_HOSTPROF_SCHEMA_PREFIX):
                hostprof_files.append(path)
            else:
                raise ValueError(
                    f"{path}: unrecognized schema {schema!r} "
                    "(expected a BENCH_*.json or hostprof.json artifact)"
                )
        else:
            raise ValueError(f"{path}: no such file or directory")
    return artifact_dirs, bench_files, hostprof_files


# -- run-artifact sections ----------------------------------------------------


def _pareto_section(artifact: RunArtifact) -> List[str]:
    drops = [
        (kind, int(artifact.event_type_counts.get(kind, 0)))
        for kind in _DROP_LABELS
        if int(artifact.event_type_counts.get(kind, 0)) > 0
    ]
    if not drops:
        return ["<p class=\"note\">no drops recorded (loss-free run)</p>"]
    drops.sort(key=lambda kv: (-kv[1], kv[0]))
    total = sum(count for _, count in drops)
    peak = drops[0][1]
    out = ["<h3>drop-cause Pareto</h3>", "<table>",
           "<tr><th>cause</th><th>count</th><th>share</th><th></th></tr>"]
    cumulative = 0
    for kind, count in drops:
        cumulative += count
        width = max(1, round(240 * count / peak))
        out.append(
            "<tr>"
            f"<td>{_esc(_DROP_LABELS[kind])} <code>{_esc(kind)}</code></td>"
            f"<td class=\"num\">{count}</td>"
            f"<td class=\"num\">{100.0 * cumulative / total:.1f}%</td>"
            f"<td><svg width=\"240\" height=\"12\">"
            f"<rect class=\"bar\" width=\"{width}\" height=\"12\"/></svg></td>"
            "</tr>"
        )
    out.append("</table>")
    return out


def _slo_section(artifact: RunArtifact) -> List[str]:
    slo = artifact.slo
    if slo is None:
        if any(k.startswith(("fault.", "recovery."))
               for k in artifact.event_type_counts):
            return [
                "<p class=\"note\">recovery SLOs: not recorded "
                "(artifact predates the slo section)</p>"
            ]
        return []
    out = [f"<h3>recovery SLOs <code>{_esc(slo.get('schema', '?'))}</code></h3>"]
    gaps = slo.get("gaps", {})
    shown = ", ".join(f"{key}={gaps[key]}" for key in sorted(gaps) if gaps[key])
    out.append(f"<p>gaps: {_esc(shown) or 'none'}</p>")
    out.append("<table><tr><th>measure</th><th>count</th><th>p50</th>"
               "<th>p99</th><th>max</th><th>mean</th></tr>")
    measures = [
        ("time to detect", slo.get("ttd_ns", {}), _fmt_ns),
        ("time to repair", slo.get("ttr_ns", {}), _fmt_ns),
        ("packets degraded", slo.get("packets_degraded", {}), _fmt),
        ("blast radius", slo.get("blast_radius", {}), _fmt),
    ]
    for label, dist, fmt in measures:
        if dist.get("count", 0):
            cells = "".join(
                f"<td class=\"num\">{fmt(float(dist[key]))}</td>"
                for key in ("p50", "p99", "max", "mean")
            )
            out.append(f"<tr><td>{label}</td>"
                       f"<td class=\"num\">{dist['count']}</td>{cells}</tr>")
        else:
            out.append(f"<tr><td>{label}</td><td class=\"num\">0</td>"
                       "<td>-</td><td>-</td><td>-</td><td>-</td></tr>")
    out.append("</table>")
    if slo.get("unrecoverable_cores"):
        cores = ", ".join(str(c) for c in slo["unrecoverable_cores"])
        out.append(f"<p>unrecoverable cores: {_esc(cores)}</p>")
    return out


def _group_traces(events: List[dict]) -> List[Tuple[int, List[dict]]]:
    """Span events grouped by trace id, ordered by first timestamp."""
    traces: Dict[int, List[dict]] = {}
    for ev in events:
        kind = str(ev.get("kind", ""))
        if not kind.startswith(SPAN_PREFIX):
            continue
        trace = ev.get("trace")
        if isinstance(trace, int):
            traces.setdefault(trace, []).append(ev)
    for spans in traces.values():
        spans.sort(key=lambda e: (float(e.get("ts_ns", 0.0)),
                                  str(e.get("kind", ""))))
    return sorted(
        traces.items(),
        key=lambda kv: (float(kv[1][0].get("ts_ns", 0.0)), kv[0]),
    )


def _waterfall_svg(spans: List[dict]) -> str:
    """One trace as an SVG waterfall: a row per span, time left to right."""
    t0 = min(float(e.get("ts_ns", 0.0)) for e in spans)
    t1 = max(float(e.get("ts_ns", 0.0)) + float(e.get("dur_ns", 0.0) or 0.0)
             for e in spans)
    window = max(t1 - t0, 1.0)
    row_h, label_w, chart_w = 18, 180, 520
    height = row_h * len(spans) + 4
    parts = [
        f"<svg width=\"{label_w + chart_w + 60}\" height=\"{height}\" "
        "role=\"img\">"
    ]
    for row, ev in enumerate(spans):
        stage = str(ev.get("kind", ""))[len(SPAN_PREFIX):]
        core = ev.get("core")
        label = stage if core is None else f"{stage} (core {core})"
        ts = float(ev.get("ts_ns", 0.0))
        dur = float(ev.get("dur_ns", 0.0) or 0.0)
        x = label_w + chart_w * (ts - t0) / window
        w = max(2.0, chart_w * dur / window)
        y = row * row_h + 2
        color = _PALETTE[row % len(_PALETTE)]
        parts.append(
            f"<text x=\"2\" y=\"{y + 11}\">{_esc(label)}</text>"
            f"<rect x=\"{x:.2f}\" y=\"{y}\" width=\"{w:.2f}\" "
            f"height=\"{row_h - 5}\" fill=\"{color}\"/>"
        )
        if dur > 0.0:
            parts.append(
                f"<text x=\"{x + w + 4:.2f}\" y=\"{y + 11}\">"
                f"{_esc(_fmt_ns(dur))}</text>"
            )
    parts.append("</svg>")
    return "".join(parts)


def _waterfall_section(events: List[dict]) -> List[str]:
    traces = _group_traces(events)
    if not traces:
        return [
            "<p class=\"note\">no span events retained "
            "(run with --trace-sample to record causal traces)</p>"
        ]
    out = ["<h3>sampled packet waterfalls</h3>"]
    for trace_id, spans in traces[:MAX_WATERFALLS]:
        index = spans[0].get("index", "?")
        out.append(f"<h4>packet index {_esc(index)} "
                   f"<code>trace {trace_id:016x}</code></h4>")
        out.append(_waterfall_svg(spans))
    if len(traces) > MAX_WATERFALLS:
        out.append(
            f"<p class=\"note\">showing first {MAX_WATERFALLS} of "
            f"{len(traces)} traces</p>"
        )
    return out


def _artifact_section(directory: Path) -> List[str]:
    artifact = RunArtifact.load(directory)
    out = [f"<h2>run artifact: <code>{_esc(directory.name)}</code></h2>"]
    out.append("<table>")
    out.append(f"<tr><th>command</th><td>{_esc(artifact.command)}</td></tr>")
    out.append(f"<tr><th>git sha</th><td>{_esc(artifact.git_sha)}</td></tr>")
    if artifact.created_utc:
        out.append(
            f"<tr><th>created</th><td>{_esc(artifact.created_utc)}</td></tr>"
        )
    if artifact.config:
        cfg = ", ".join(f"{k}={v}"
                        for k, v in sorted(artifact.config.items()))
        out.append(f"<tr><th>config</th><td>{_esc(cfg)}</td></tr>")
    out.append(
        f"<tr><th>events</th><td>{artifact.events_emitted} emitted, "
        f"{artifact.events_retained} retained</td></tr>"
    )
    out.append("</table>")
    out.extend(_pareto_section(artifact))
    out.extend(_slo_section(artifact))
    out.extend(_waterfall_section(artifact.read_events(directory)))
    return out


# -- bench-artifact sections --------------------------------------------------


def _line_chart(points: List[Tuple[float, float]], unit: str,
                color: str) -> str:
    width, height, pad = 560, 220, 36
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(0.0, min(ys)), max(ys)
    x_span = max(x_hi - x_lo, 1e-12)
    y_span = max(y_hi - y_lo, 1e-12)

    def sx(x: float) -> float:
        return pad + (width - 2 * pad) * (x - x_lo) / x_span

    def sy(y: float) -> float:
        return height - pad - (height - 2 * pad) * (y - y_lo) / y_span

    path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
    parts = [
        f"<svg width=\"{width}\" height=\"{height}\" role=\"img\">",
        f"<line x1=\"{pad}\" y1=\"{height - pad}\" x2=\"{width - pad}\" "
        f"y2=\"{height - pad}\" stroke=\"#9ca3af\"/>",
        f"<line x1=\"{pad}\" y1=\"{pad}\" x2=\"{pad}\" "
        f"y2=\"{height - pad}\" stroke=\"#9ca3af\"/>",
        f"<polyline points=\"{path}\" fill=\"none\" stroke=\"{color}\" "
        "stroke-width=\"2\"/>",
    ]
    for x, y in points:
        parts.append(f"<circle cx=\"{sx(x):.2f}\" cy=\"{sy(y):.2f}\" "
                     f"r=\"3\" fill=\"{color}\"/>")
    parts.append(f"<text x=\"{pad}\" y=\"{height - pad + 14}\">"
                 f"{_fmt(x_lo)}</text>")
    parts.append(f"<text x=\"{width - pad}\" y=\"{height - pad + 14}\" "
                 f"text-anchor=\"end\">{_fmt(x_hi)}</text>")
    parts.append(f"<text x=\"{pad - 4}\" y=\"{pad}\" text-anchor=\"end\">"
                 f"{_fmt(y_hi)}</text>")
    parts.append(f"<text x=\"{pad - 4}\" y=\"{height - pad}\" "
                 f"text-anchor=\"end\">{_fmt(y_lo)}</text>")
    parts.append(f"<text x=\"{width - pad}\" y=\"{pad}\" "
                 f"text-anchor=\"end\">{_esc(unit)}</text>")
    parts.append("</svg>")
    return "".join(parts)


def _as_number(x: object) -> Optional[float]:
    """Chartable x coordinate, if any (BENCH x values may be stringly)."""
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, float)):
        return float(x)
    if isinstance(x, str):
        try:
            return float(x)
        except ValueError:
            return None
    return None


def _series_block(name: str, series: dict, color: str) -> List[str]:
    unit = str(series.get("unit", ""))
    points = series.get("points", [])
    out = [f"<h3><code>{_esc(name)}</code> "
           f"<span class=\"note\">({_esc(unit) or 'unitless'}, "
           f"{_esc(series.get('direction', '?'))})</span></h3>"]
    numeric = [
        (x, float(p["median"]))
        for p in points
        for x in [_as_number(p.get("x"))]
        if x is not None
    ]
    if len(numeric) >= 2 and len(numeric) == len(points):
        out.append(_line_chart(sorted(numeric), unit, color))
    out.append("<table><tr><th>x</th><th>median</th><th>mad</th></tr>")
    for p in points:
        out.append(
            f"<tr><td>{_esc(p.get('x'))}</td>"
            f"<td class=\"num\">{_fmt(float(p.get('median', 0.0)))}</td>"
            f"<td class=\"num\">{_fmt(float(p.get('mad', 0.0)))}</td></tr>"
        )
    out.append("</table>")
    return out


def _bench_section(path: Path) -> List[str]:
    with path.open() as fh:
        data = json.load(fh)
    name = str(data.get("name", path.name))
    out = [f"<h2>bench artifact: <code>{_esc(path.name)}</code> "
           f"({_esc(name)})</h2>"]
    if data.get("git_sha") and data["git_sha"] != "unknown":
        out.append(f"<p>git sha: <code>{_esc(data['git_sha'])}</code></p>")
    series = data.get("series", {})
    if not series:
        out.append("<p class=\"note\">artifact has no series</p>")
    for i, sname in enumerate(sorted(series)):
        out.extend(_series_block(sname, series[sname],
                                 _PALETTE[i % len(_PALETTE)]))
    return out


# -- host-profile sections ----------------------------------------------------


def _phase_tree(
    phases: Mapping[str, Mapping[str, int]],
) -> Tuple[Dict[str, Dict[str, int]], List[str], Dict[str, List[str]]]:
    """(nodes, roots, children) for the phase forest.

    Worker-prefixed folds may lack explicit ancestor entries (the
    ``worker`` prefix root is synthetic); missing ancestors are created
    with cumulative time equal to the sum of their children so the
    icicle layout always has a complete tree.
    """
    nodes: Dict[str, Dict[str, int]] = {
        path: {k: int(v) for k, v in entry.items()}
        for path, entry in phases.items()
    }
    created: List[str] = []
    # Deepest first: a created parent may itself need a created parent.
    for path in sorted(nodes, key=lambda p: (-p.count(PATH_SEP), p)):
        if PATH_SEP not in path:
            continue
        parent = path.rsplit(PATH_SEP, 1)[0]
        if parent not in nodes:
            nodes[parent] = {"calls": 0, "total_ns": 0, "self_ns": 0}
            created.append(parent)
    for path in sorted(created, key=lambda p: (-p.count(PATH_SEP), p)):
        for child, entry in nodes.items():
            if child.rsplit(PATH_SEP, 1)[0] == path and child != path:
                nodes[path]["total_ns"] += entry["total_ns"]
    roots: List[str] = []
    children: Dict[str, List[str]] = {}
    for path in sorted(nodes):
        if PATH_SEP in path:
            children.setdefault(path.rsplit(PATH_SEP, 1)[0], []).append(path)
        else:
            roots.append(path)
    return nodes, roots, children


def _flamegraph_svg(phases: Mapping[str, Mapping[str, int]]) -> str:
    """Deterministic SVG icicle chart of the phase tree (roots on top).

    Rows are nesting depth; widths are proportional to cumulative wall
    ns; children sit inside their parent's extent in sorted-path order.
    Uncovered parent area is the phase's self time.  Hover titles carry
    the full path and timings (no scripts).
    """
    nodes, roots, children = _phase_tree(phases)
    if not roots:
        return "<p class=\"note\">no phases recorded</p>"
    width, row_h = 880.0, 18
    grand = float(sum(nodes[r]["total_ns"] for r in roots)) or 1.0
    rects: List[str] = []
    max_depth = 0

    def place(path: str, x: float, w: float, depth: int, sibling: int) -> None:
        nonlocal max_depth
        max_depth = max(max_depth, depth)
        entry = nodes[path]
        name = path.rsplit(PATH_SEP, 1)[-1]
        color = _PALETTE[sibling % len(_PALETTE)]
        y = depth * row_h
        title = (f"{path} — {_fmt_ns(float(entry['total_ns']))} total, "
                 f"{_fmt_ns(float(entry['self_ns']))} self, "
                 f"{entry['calls']} calls")
        rects.append(
            f"<g><title>{_esc(title)}</title>"
            f"<rect x=\"{x:.2f}\" y=\"{y}\" width=\"{max(w, 1.0):.2f}\" "
            f"height=\"{row_h - 2}\" fill=\"{color}\" fill-opacity=\"0.85\" "
            "stroke=\"#ffffff\"/>"
        )
        if w >= 58:
            label = name if len(name) * 6.5 <= w - 8 else (
                name[: max(int((w - 8) / 6.5) - 1, 1)] + "…"
            )
            rects.append(
                f"<text x=\"{x + 4:.2f}\" y=\"{y + 12}\">{_esc(label)}</text>"
            )
        rects.append("</g>")
        total = float(entry["total_ns"]) or 1.0
        cx = x
        for i, child in enumerate(children.get(path, [])):
            cw = w * float(nodes[child]["total_ns"]) / total
            place(child, cx, cw, depth + 1, i)
            cx += cw

    x = 0.0
    for i, root in enumerate(roots):
        w = width * float(nodes[root]["total_ns"]) / grand
        place(root, x, w, 0, i)
        x += w
    height = (max_depth + 1) * row_h
    return (
        f"<svg width=\"{width:.0f}\" height=\"{height}\" role=\"img\" "
        "class=\"flamegraph\">" + "".join(rects) + "</svg>"
    )


def _hostprof_pareto(profile: HostProfile) -> List[str]:
    rows = profile.pareto()[:12]
    if not rows:
        return ["<p class=\"note\">no phases recorded</p>"]
    peak = max(r["self_ns"] for r in rows) or 1
    out = ["<h3>host wall-clock Pareto (self time)</h3>", "<table>",
           "<tr><th>phase</th><th>calls</th><th>total</th><th>self</th>"
           "<th>self %</th><th></th></tr>"]
    for r in rows:
        bar = max(1, round(240 * r["self_ns"] / peak))
        out.append(
            "<tr>"
            f"<td><code>{_esc(r['path'])}</code></td>"
            f"<td class=\"num\">{r['calls']}</td>"
            f"<td class=\"num\">{_fmt_ns(float(r['total_ns']))}</td>"
            f"<td class=\"num\">{_fmt_ns(float(r['self_ns']))}</td>"
            f"<td class=\"num\">{100.0 * r['self_share']:.1f}%</td>"
            f"<td><svg width=\"240\" height=\"12\">"
            f"<rect class=\"bar\" width=\"{bar}\" height=\"12\"/></svg></td>"
            "</tr>"
        )
    out.append("</table>")
    return out


def _hostprof_deep(profile: HostProfile) -> List[str]:
    deep = profile.deep or {}
    out: List[str] = []
    functions = deep.get("functions") or []
    if functions:
        out.append("<h3>deep capture: hottest functions (cProfile)</h3>")
        out.append("<table><tr><th>function</th><th>calls</th>"
                   "<th>self</th><th>cumulative</th></tr>")
        for row in functions[:12]:
            out.append(
                f"<tr><td><code>{_esc(row.get('function', '?'))}</code></td>"
                f"<td class=\"num\">{int(row.get('ncalls', 0))}</td>"
                f"<td class=\"num\">"
                f"{_fmt_ns(float(row.get('tottime_ns', 0)))}</td>"
                f"<td class=\"num\">"
                f"{_fmt_ns(float(row.get('cumtime_ns', 0)))}</td></tr>"
            )
        out.append("</table>")
    peaks = deep.get("memory_peak_bytes") or {}
    if peaks:
        top = sorted(peaks.items(), key=lambda kv: (-int(kv[1]), kv[0]))[:8]
        out.append("<h3>deep capture: allocation peaks (tracemalloc)</h3>")
        out.append("<table><tr><th>phase</th><th>peak bytes</th></tr>")
        for path, peak in top:
            out.append(f"<tr><td><code>{_esc(path)}</code></td>"
                       f"<td class=\"num\">{int(peak)}</td></tr>")
        out.append("</table>")
    return out


def _hostprof_section(path: Path) -> List[str]:
    profile = HostProfile.load(path)
    out = [f"<h2>host profile: <code>{_esc(path.parent.name)}</code> "
           f"<span class=\"note\">({_esc(profile.command)})</span></h2>"]
    out.append("<table>")
    out.append(f"<tr><th>schema</th><td><code>{_esc(profile.schema)}</code>"
               "</td></tr>")
    out.append(f"<tr><th>git sha</th><td>{_esc(profile.git_sha)}</td></tr>")
    if profile.created_utc:
        out.append(
            f"<tr><th>created</th><td>{_esc(profile.created_utc)}</td></tr>"
        )
    if profile.python or profile.platform:
        out.append(f"<tr><th>host</th><td>python {_esc(profile.python)} · "
                   f"{_esc(profile.platform)}</td></tr>")
    if profile.config:
        cfg = ", ".join(f"{k}={v}" for k, v in sorted(profile.config.items()))
        out.append(f"<tr><th>config</th><td>{_esc(cfg)}</td></tr>")
    out.append(
        "<tr><th>wall accounted</th>"
        f"<td>{_fmt_ns(float(profile.total_wall_ns()))} across "
        f"{len(profile.phases)} phases</td></tr>"
    )
    out.append("</table>")
    out.extend(_hostprof_pareto(profile))
    out.append("<h3>phase flamegraph (wall time, icicle)</h3>")
    out.append(_flamegraph_svg(profile.phases))
    out.extend(_hostprof_deep(profile))
    return out


# -- assembly -----------------------------------------------------------------


def render_report(inputs: Sequence[Union[str, Path]]) -> str:
    """The full dashboard HTML for ``inputs`` (dirs and/or BENCH files).

    Pure function of the input file bytes — no wall clock, no randomness,
    no environment reads — so identical inputs render identical bytes.
    """
    artifact_dirs, bench_files, hostprof_files = classify_inputs(inputs)
    body: List[str] = []
    for directory in artifact_dirs:
        body.extend(_artifact_section(directory))
    for path in bench_files:
        body.extend(_bench_section(path))
    for path in hostprof_files:
        body.extend(_hostprof_section(path))
    if not body:
        body.append("<p class=\"note\">no inputs</p>")
    sections = "\n".join(body)
    return (
        "<!DOCTYPE html>\n"
        "<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
        "<title>scr-repro report</title>\n"
        f"<style>\n{_CSS}</style>\n</head>\n<body>\n"
        "<h1>scr-repro report</h1>\n"
        f"{sections}\n"
        "</body>\n</html>\n"
    )


def write_report(
    inputs: Sequence[Union[str, Path]], out: Union[str, Path]
) -> Path:
    """Render and write the dashboard; returns the output path."""
    out_path = Path(out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(render_report(inputs), encoding="utf-8")
    return out_path

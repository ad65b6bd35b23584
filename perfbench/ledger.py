"""Traced run: spans around each layer's public entry point.

The wrappers are installed from the benchmark's own files, at the names
the program actually resolves at call time:

* ``repro.bench.mlffr.simulate`` (imported at module level by the MLFFR
  search, so patching ``repro.cpu.simulator.simulate`` would miss it);
* ``repro.cpu.columnar.simulate_columnar`` (imported lazily per call);
* ``repro.scenario.build.make_engine``, ``StackBuilder.trace``,
  ``PerfTrace.from_trace``, ``FaultPlan.__init__`` and
  ``Telemetry.write_artifact``.

Spans stay in memory with parent ids; a span's self time is its duration
minus the durations of its direct children.  :meth:`SpanLog.write` dumps
them as JSON lines when the run ends, and :func:`installed` restores every
original on exit.
"""

from __future__ import annotations

import json
import statistics
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layers below a search: their self-times, over the searches' wall, give
#: ``bench.ledger_coverage`` (the rest is the search span's own self time,
#: reported as ``mlffr.search_self_s``).
LAYER_SPANS = (
    "mlffr.probe", "columnar.run", "parallel.build", "faults.plan",
    "telemetry.write", "traffic.synth", "cpu.lower",
)

TECHNIQUES = ("scr", "relaxed_scr", "rss", "shared", "hybrid")


@dataclass
class Span:
    id: int
    parent: Optional[int]
    root: int
    name: str
    start_ns: int
    end_ns: int = 0
    child_ns: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.dur_ns - self.child_ns


class SpanLog:
    """In-memory span store for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            id=len(self.spans),
            parent=parent.id if parent else None,
            root=parent.root if parent else len(self.spans),
            name=name,
            start_ns=time.perf_counter_ns(),
            attrs=attrs,
        )
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end_ns = time.perf_counter_ns()
            self._stack.pop()
            if parent is not None:
                parent.child_ns += sp.dur_ns

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "id": sp.id, "parent": sp.parent, "root": sp.root,
                    "name": sp.name, "start_ns": sp.start_ns,
                    "dur_ns": sp.dur_ns, "self_ns": sp.self_ns,
                    "attrs": sp.attrs,
                }, sort_keys=True, default=str) + "\n")


# -- wrappers ------------------------------------------------------------------


def _column_bytes(pt: Any) -> int:
    return sum(int(getattr(pt, name).nbytes) for name in (
        "key_ids", "hash_l3", "hash_l4", "hash_sym", "wire_lens",
        "valid", "touches_global"))


def _fault_count(stats: Optional[Dict[str, object]]) -> int:
    if not stats:
        return 0
    return sum(int(stats.get(k, 0) or 0) for k in (  # type: ignore[call-overload]
        "fault_dropped", "fault_pop_dropped", "fault_duplicated",
        "fault_reordered"))


@contextmanager
def installed(log: SpanLog) -> Iterator[None]:
    """Wrap every layer entry point for the duration of the block."""
    import repro.bench.mlffr as mlffr_mod
    import repro.cpu.columnar as columnar_mod
    import repro.scenario.build as build_mod
    from repro.bench.mlffr import LOSS_THRESHOLD
    from repro.cpu.simulator import PerfTrace
    from repro.faults.plan import FaultPlan
    from repro.obs.spans import SPAN_PREFIX
    from repro.scenario.build import StackBuilder
    from repro.telemetry.artifact import Telemetry

    patches: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[name]
        patches.append((owner, name, original))
        setattr(owner, name, make(original))

    def wrap_simulate(orig: Callable[..., Any]) -> Callable[..., Any]:
        def simulate(perf_trace: Any, rate_pps: float, engine: Any,
                     *args: Any, **kwargs: Any) -> Any:
            with log.span("mlffr.probe", packets=len(perf_trace),
                          columnar="none") as sp:
                res = orig(perf_trace, rate_pps, engine, *args, **kwargs)
            sp.attrs.update(
                lossfree=res.loss_fraction <= LOSS_THRESHOLD,
                wire_drops=res.wire_dropped, pcie_drops=res.pcie_dropped,
                ring_drops=res.ring_dropped,
                injected=_fault_count(res.fault_stats))
            return res
        return simulate

    def wrap_columnar(orig: Callable[..., Any]) -> Callable[..., Any]:
        def simulate_columnar(perf_trace: Any, rate_pps: float, engine: Any,
                              *args: Any, **kwargs: Any) -> Any:
            probe = log.current()
            tracer, spans = kwargs.get("tracer"), kwargs.get("spans")
            faults = kwargs.get("faults")
            eligible = getattr(engine, "columnar_eligible", None)
            if ((tracer is not None and tracer.enabled)
                    or (spans is not None and spans.enabled)
                    or (faults is not None and faults.any_faults)
                    or not callable(eligible) or not eligible()):
                if probe is not None:
                    probe.attrs["columnar"] = "ineligible"
                return orig(perf_trace, rate_pps, engine, *args, **kwargs)
            with log.span("columnar.run") as sp:
                res = orig(perf_trace, rate_pps, engine, *args, **kwargs)
            outcome = "commit" if res is not None else "abort"
            sp.attrs["outcome"] = outcome
            if probe is not None:
                probe.attrs["columnar"] = outcome
            return res
        return simulate_columnar

    seen: "weakref.WeakKeyDictionary[Any, set]" = weakref.WeakKeyDictionary()

    def wrap_trace(orig: Callable[..., Any]) -> Callable[..., Any]:
        def trace(self: Any, spec: Any) -> Any:
            with log.span("traffic.synth") as sp:
                result = orig(self, spec)
            specs = seen.setdefault(self, set())
            if spec not in specs:
                specs.add(spec)
                sp.attrs["packets"] = len(result)
            return result
        return trace

    def wrap_lower(orig: classmethod) -> classmethod:
        func = orig.__func__

        def from_trace(cls: Any, *args: Any, **kwargs: Any) -> Any:
            with log.span("cpu.lower") as sp:
                pt = func(cls, *args, **kwargs)
            sp.attrs["mb"] = _column_bytes(pt) / 1e6
            return pt
        return classmethod(from_trace)

    def wrap_span(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        def make(orig: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with log.span(name):
                    return orig(*args, **kwargs)
            return wrapper
        return make

    def wrap_write(orig: Callable[..., Any]) -> Callable[..., Any]:
        def write_artifact(self: Any, *args: Any, **kwargs: Any) -> Any:
            tracer = self.tracer
            with log.span("telemetry.write", events=tracer.emitted,
                          kept=len(tracer),
                          spans=sum(n for kind, n in tracer.type_counts.items()
                                    if kind.startswith(SPAN_PREFIX))):
                return orig(self, *args, **kwargs)
        return write_artifact

    patch(mlffr_mod, "simulate", wrap_simulate)
    patch(columnar_mod, "simulate_columnar", wrap_columnar)
    patch(build_mod, "make_engine", wrap_span("parallel.build"))
    patch(StackBuilder, "trace", wrap_trace)
    patch(PerfTrace, "from_trace", wrap_lower)
    patch(FaultPlan, "__init__", wrap_span("faults.plan"))
    patch(Telemetry, "write_artifact", wrap_write)
    try:
        yield
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


# -- per-layer metrics -----------------------------------------------------------


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p95(values: List[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def layer_metrics(log: SpanLog) -> Dict[str, float]:
    """Fold the span log into the per-layer ledger.

    Set-up layers are medians over the traced set-up repetitions.  Grid
    layers are totals per traced grid (means over grids), so the program
    self-times add up to the traced ``bench.grid_s``.  Telemetry layers
    are means per observed search, wherever it ran.
    """
    by_id = {sp.id: sp for sp in log.spans}
    roots = {sp.id: sp for sp in log.spans if sp.parent is None}

    def under(root_name: str) -> Dict[int, List[Span]]:
        out: Dict[int, List[Span]] = {
            rid: [] for rid, r in roots.items() if r.name == root_name}
        for sp in log.spans:
            if sp.root in out and sp.parent is not None:
                out[sp.root].append(sp)
        return out

    m: Dict[str, float] = {}

    setups = under("bench.setup")
    m["traffic.synth_s"] = _median([
        sum(s.self_ns for s in spans if s.name == "traffic.synth") / 1e9
        for spans in setups.values()])
    m["traffic.packets"] = _median([
        float(sum(s.attrs.get("packets", 0) for s in spans
                  if s.name == "traffic.synth")) for spans in setups.values()])
    m["cpu.lower_s"] = _median([
        sum(s.self_ns for s in spans if s.name == "cpu.lower") / 1e9
        for spans in setups.values()])
    m["cpu.trace_mb"] = _median([
        sum(s.attrs.get("mb", 0.0) for s in spans if s.name == "cpu.lower")
        for spans in setups.values()])
    m["parallel.build_s"] = _median([
        sum(s.self_ns for s in spans if s.name == "parallel.build") / 1e9
        for spans in setups.values()])

    grids = under("bench.grid")
    n = max(len(grids), 1)
    flat = [sp for spans in grids.values() for sp in spans]
    searches = [s for s in flat if s.name == "mlffr.search"]
    probes = [s for s in flat if s.name == "mlffr.probe"]
    runs = [s for s in flat if s.name == "columnar.run"]

    def per_grid(spans: List[Span], value: Callable[[Span], float]) -> float:
        return sum(value(s) for s in spans) / n

    for technique in TECHNIQUES:
        m[f"parallel.{technique}.search_s"] = _median([
            s.dur_ns / 1e9 for s in searches
            if s.attrs.get("technique") == technique
            and not s.attrs.get("observed")])

    passing = [p for p in probes if p.attrs.get("lossfree")]
    failing = [p for p in probes if not p.attrs.get("lossfree")]
    m["mlffr.probes"] = len(probes) / n
    m["mlffr.fail_frac"] = len(failing) / len(probes) if probes else 0.0
    m["mlffr.pass_probe_s"] = per_grid(passing, lambda s: s.dur_ns / 1e9)
    m["mlffr.fail_probe_s"] = per_grid(failing, lambda s: s.dur_ns / 1e9)
    probe_ms = [p.dur_ns / 1e6 for p in probes]
    m["mlffr.probe_ms.p50"] = _median(probe_ms)
    m["mlffr.probe_ms.p95"] = _p95(probe_ms)
    m["mlffr.search_self_s"] = per_grid(searches, lambda s: s.self_ns / 1e9)
    m["parallel.engine_s"] = per_grid(
        [s for s in flat if s.name == "parallel.build"], lambda s: s.self_ns / 1e9)

    commits = [r for r in runs if r.attrs.get("outcome") == "commit"]
    aborts = [r for r in runs if r.attrs.get("outcome") == "abort"]
    ineligible = [p for p in probes if p.attrs.get("columnar") == "ineligible"]
    m["columnar.attempts"] = len(runs) / n
    m["columnar.commits"] = len(commits) / n
    m["columnar.aborts"] = len(aborts) / n
    m["columnar.ineligible"] = len(ineligible) / n
    m["columnar.commit_ratio"] = len(commits) / len(runs) if runs else 0.0
    commit_s = sum(r.dur_ns for r in commits) / 1e9
    m["columnar.commit_s"] = commit_s / n
    m["columnar.abort_s"] = per_grid(aborts, lambda s: s.dur_ns / 1e9)
    committed_packets = sum(by_id[r.parent].attrs["packets"] for r in commits
                            if r.parent is not None)
    m["columnar.commit_kpps"] = (
        committed_packets / commit_s / 1e3 if commit_s else 0.0)

    scalar = [p for p in probes if p.attrs.get("columnar") != "commit"]
    scalar_s = sum(p.self_ns for p in probes) / 1e9
    m["scalar.runs"] = len(scalar) / n
    m["scalar.s"] = scalar_s / n
    scalar_packets = sum(p.attrs["packets"] for p in scalar)
    m["scalar.kpps"] = scalar_packets / scalar_s / 1e3 if scalar_s else 0.0

    for cause in ("wire", "pcie", "ring"):
        m[f"nic.{cause}_drops"] = per_grid(
            failing, lambda s, c=cause: float(s.attrs.get(f"{c}_drops", 0)))

    m["faults.plan_s"] = per_grid(
        [s for s in flat if s.name == "faults.plan"], lambda s: s.self_ns / 1e9)
    m["faults.injected"] = per_grid(
        probes, lambda s: float(s.attrs.get("injected", 0)))
    for counter in ("promotions", "migrations"):
        m[f"placement.{counter}"] = per_grid(
            searches, lambda s, c=counter: float(s.attrs.get(c, 0)))

    writes = [s for s in log.spans if s.name == "telemetry.write"]
    events = sum(w.attrs["events"] for w in writes)
    m["telemetry.events"] = events / len(writes) if writes else 0.0
    m["telemetry.kept_frac"] = (
        sum(w.attrs["kept"] for w in writes) / events if events else 0.0)
    m["telemetry.write_s"] = _median([w.dur_ns / 1e9 for w in writes])
    m["obs.spans"] = (
        sum(w.attrs["spans"] for w in writes) / len(writes) if writes else 0.0)

    # The grid wall as the untraced run defines it: each search's median
    # over the grids, summed; the rest of a grid span is the benchmark's
    # own loop (collections between searches, oracle checks).
    walls: Dict[Tuple[str, bool], List[float]] = {}
    for s in searches:
        walls.setdefault((s.attrs["label"], s.attrs["observed"]), []).append(
            s.dur_ns / 1e9)
    grid_s = sum(_median(v) for v in walls.values())
    search_ns = sum(s.dur_ns for s in searches)
    layer_ns = sum(s.self_ns for s in flat if s.name in LAYER_SPANS)
    m["bench.grid_s"] = grid_s
    m["bench.harness_s"] = (
        sum(roots[rid].dur_ns for rid in grids) - search_ns) / 1e9 / n
    m["bench.ledger_coverage"] = layer_ns / search_ns if search_ns else 0.0
    return m

"""Wall-time benchmark of the MLFFR search harness.

A closed loop: one process runs one MLFFR search at a time (no process
fan-out, no on-disk ``TraceCache``, the default columnar hot path)
through the public ``Scenario`` -> ``StackBuilder`` -> ``run_scenario``
path, and checks every search against expected results taken once from
the scalar oracle.  See ``perfbench/README.md`` for the workloads, the
metrics and what each layer metric should move.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.bench.mlffr import LOSS_THRESHOLD
from repro.faults.spec import FaultSpec
from repro.obs import SpanEmitter, SpanSampler
from repro.placement import PlacementSpec
from repro.scenario import Scenario, StackBuilder, run_scenario
from repro.scenario.build import ScenarioResult
from repro.telemetry.artifact import Telemetry

import ledger

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: Environment that would change which program runs; cleared at start.
PINNED_ENV = ("REPRO_HOTPATH", "SCR_CACHE_DIR")

SETUP_REPS = 5
SPAN_SAMPLE_RATE = 0.05

#: Seconds the speed gauge's kernel takes at the reference machine speed;
#: timed sections are reported as wall x REFERENCE_KERNEL_S / kernel time.
REFERENCE_KERNEL_S = 0.016

CAIDA_FLOWS = 400
HOTPATH_PACKETS = 4000
SCALAR_PACKETS = 4000
HYBRID_FLOWS = 10_000
HYBRID_PACKETS = 2000
OBSERVED_PACKETS = 2000
CORES = (2, 4, 8)

#: The repo's evaluation convention for SCR engines (the perf suites'
#: ``_SCR_IN_FRAME``): the history rides inside the frame.
_SCR_KWARGS = {"count_wire_overhead": False}

#: The multitenant suite's placement spec (repro.perf.suite).
_PLACEMENT = PlacementSpec(max_elephants=12, promote_threshold=24,
                           demote_threshold=8)

END_TO_END_UNITS = {
    "grid_s": "s",
    "search_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "observe_ratio": "x",
    "artifact_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    name: str
    #: (label, scenario) in canonical order; labels key the expected file.
    scenarios: Tuple[Tuple[str, Scenario], ...]
    #: every search also runs observed (telemetry + spans + artifact).
    observe_all: bool = False
    #: label of the scenario run plain then observed after each round's
    #: grid, so that observe_ratio and artifact_mb exist on plain
    #: workloads too.
    twin: Optional[str] = None


def _label(s: Scenario) -> str:
    label = f"{s.program}/{s.workload}/{s.technique}/{s.cores}"
    if s.faults is not None:
        label += f"/drop{s.faults.drop_rate:g}"
    return label


def _caida(program: str, technique: str, cores: int, seed: int,
           packets: int, **extra: Any) -> Scenario:
    return Scenario.create(
        program, "caida", technique, cores,
        num_flows=CAIDA_FLOWS, max_packets=packets, seed=seed,
        engine_kwargs=_SCR_KWARGS if technique in ("scr", "relaxed_scr") else None,
        **extra)


def _workload(name: str, scenarios: List[Scenario], **kw: Any) -> Workload:
    return Workload(name, tuple((_label(s), s) for s in scenarios), **kw)


def sweep_hotpath(seed: int) -> Workload:
    grid = []
    for program in ("ddos", "token_bucket", "conntrack"):
        techniques = ("scr", "rss") + (("relaxed_scr",) if program == "ddos" else ())
        for technique in techniques:
            for cores in CORES:
                grid.append(_caida(program, technique, cores, seed, HOTPATH_PACKETS))
    return _workload("sweep_hotpath", grid, twin="ddos/caida/rss/4")


def sweep_scalar(seed: int) -> Workload:
    grid = [_caida("ddos", "shared", c, seed, SCALAR_PACKETS) for c in CORES]
    grid += [_caida("ddos", "scr", c, seed, SCALAR_PACKETS,
                    faults=FaultSpec(seed=seed, drop_rate=0.01)) for c in CORES]
    grid += [Scenario.create("ddos", "zipf", "hybrid", c, num_flows=HYBRID_FLOWS,
                             max_packets=HYBRID_PACKETS, seed=seed,
                             placement=_PLACEMENT) for c in (4, 8)]
    return _workload("sweep_scalar", grid, twin="ddos/caida/shared/4")


def sweep_observed(seed: int) -> Workload:
    grid = [_caida("ddos", t, c, seed, OBSERVED_PACKETS)
            for t in ("scr", "rss") for c in (2, 4)]
    return _workload("sweep_observed", grid, observe_all=True)


WORKLOADS = {
    "sweep_hotpath": sweep_hotpath,
    "sweep_scalar": sweep_scalar,
    "sweep_observed": sweep_observed,
}


# -- provenance ------------------------------------------------------------------


def pin_environment() -> Dict[str, Optional[str]]:
    """Clear inherited settings that would select another program path."""
    return {name: os.environ.pop(name, None) for name in PINNED_ENV}


def git_sha(root: Path) -> str:
    """HEAD of ``root``'s own ``.git`` (no parent-directory discovery)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, cleared: Dict[str, Optional[str]]) -> Dict[str, Any]:
    return {
        "git_sha": git_sha(root),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cleared_env": {k: v for k, v in cleared.items() if v is not None},
    }


# -- expected results (scalar oracle) --------------------------------------------


def expected_path(workload: str, workload_seed: int) -> Path:
    return EXPECTED_DIR / f"{workload}-seed{workload_seed}.json"


def _outcome(res: ScenarioResult) -> Dict[str, Any]:
    return {
        "mlffr_mpps": res.mlffr_mpps,
        "iterations": res.iterations,
        "probes": [[rate, loss <= LOSS_THRESHOLD] for rate, loss in res.probes],
    }


def oracle(workload: Workload) -> Dict[str, Dict[str, Any]]:
    """Expected outcome of every search, from the scalar event loop."""
    from repro.cpu.columnar import use_hotpath

    builder = StackBuilder()
    with use_hotpath("scalar"):
        return {label: _outcome(run_scenario(s, builder))
                for label, s in workload.scenarios}


def check(res: ScenarioResult, expected: Dict[str, Any]) -> Optional[str]:
    """Why ``res`` disagrees with the oracle (probe verdicts, not losses)."""
    got = _outcome(res)
    for key in ("mlffr_mpps", "iterations", "probes"):
        if got[key] != expected[key]:
            return f"{key}: got {got[key]!r}, expected {expected[key]!r}"
    return None


# -- the measured loop -----------------------------------------------------------


class SpeedGauge:
    """The machine's current speed, from a fixed kernel timed between
    measured sections.

    Small cloud VMs change speed by up to 1.6x for seconds at a time (an
    identical search, and this kernel, both run that much slower), which
    would swamp any change worth measuring.  The kernel is interpreter
    and numpy work that never touches the program, so it tracks the
    machine and not the code under test; :meth:`scale` reports a section's
    wall at the reference speed, using the kernel times just before and
    just after it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._small = rng.random(10_000)
        self._large = rng.random(200_000)
        self.samples: List[float] = []
        self._last = self._kernel()

    def _kernel(self) -> float:
        """Interpreter loop, object allocation + JSON encoding, and numpy
        on a cache-sized and a memory-sized array: the mix the searches
        (scalar loop, telemetry, columnar) spend their time in."""
        t0 = time.perf_counter()
        table: Dict[int, int] = {}
        acc = 0
        for i in range(10_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
            acc += i * 3 % 7
        json.dumps([{"ts": i * 1.5, "core": i & 7, "f": (i, acc)}
                    for i in range(3_000)])
        x = self._small
        for _ in range(2):
            x = np.sort(np.cumsum(x) % 1.0)
        np.sort(np.cumsum(self._large) % 1.0)
        wall = time.perf_counter() - t0
        self.samples.append(wall)
        return wall

    def scale(self, wall_s: float) -> float:
        """``wall_s`` of the section that just ended, at reference speed."""
        before, self._last = self._last, self._kernel()
        return wall_s * 2 * REFERENCE_KERNEL_S / (before + self._last)


@dataclass
class Search:
    label: str
    observed: bool
    #: "warmup", "grid" or "twin".
    phase: str
    traced: bool
    #: index of the measured round (-1 for warm-up searches).
    round: int = -1
    wall_s: float = 0.0
    #: ``wall_s`` at the reference machine speed (see SpeedGauge).
    norm_s: float = 0.0
    artifact_bytes: int = 0
    error: Optional[str] = None

    @property
    def key(self) -> Tuple[str, bool]:
        return self.label, self.observed


class Runner:
    """Runs one workload's searches and keeps every outcome."""

    def __init__(self, workload: Workload, expected: Dict[str, Dict[str, Any]],
                 scratch: Path, trace_log: Optional[ledger.SpanLog] = None) -> None:
        missing = [label for label, _ in workload.scenarios if label not in expected]
        if missing:
            raise KeyError(f"no expected result for {', '.join(missing)}")
        self.workload = workload
        self.expected = expected
        self.scratch = scratch
        self.trace_log = trace_log
        #: the span log while the layer wrappers are installed, else None.
        self.log: Optional[ledger.SpanLog] = None
        self.searches: List[Search] = []
        self.gauge = SpeedGauge()

    @contextmanager
    def tracing(self, on: bool = True) -> Iterator[None]:
        """Wrap the layers (traced runs only) for the duration of the block."""
        if self.trace_log is None or not on:
            yield
            return
        with ledger.installed(self.trace_log):
            self.log = self.trace_log
            try:
                yield
            finally:
                self.log = None

    def _span(self, name: str, **attrs: Any) -> Any:
        if self.log is None:
            return nullcontext()
        return self.log.span(name, **attrs)

    def setup(self) -> Tuple[StackBuilder, float]:
        """Cold synthesis + lowering + engine build of every scenario;
        returns the builder and the set-up time at reference speed."""
        builder = StackBuilder()
        with self._span("bench.setup"):
            t0 = time.perf_counter()
            for _, scenario in self.workload.scenarios:
                builder.stack(scenario)
            wall = time.perf_counter() - t0
        return builder, self.gauge.scale(wall)

    def search(self, label: str, scenario: Scenario, builder: StackBuilder,
               observed: bool, phase: str, index: int = -1) -> Search:
        """One MLFFR search, checked against the oracle.

        A full collection first (outside the timing) resets the collector's
        generation counts, so a search's garbage-collection work does not
        depend on which searches ran before it.
        """
        rec = Search(label, observed, phase,
                     traced=self.log is not None, round=index)
        tele = None
        artifact_dir = None
        gc.collect()
        try:
            if observed:
                tele = Telemetry()
                tele.spans = SpanEmitter(
                    tele.tracer, SpanSampler(scenario.trace.seed, SPAN_SAMPLE_RATE))
                artifact_dir = Path(tempfile.mkdtemp(dir=self.scratch))
            with self._span("mlffr.search", label=label, observed=observed,
                            technique=scenario.technique) as sp:
                t0 = time.perf_counter()
                res = run_scenario(scenario, builder, telemetry=tele)
                if tele is not None:
                    tele.write_artifact(artifact_dir, command="perfbench",
                                        config={"scenario": label},
                                        num_cores=scenario.cores)
                rec.wall_s = time.perf_counter() - t0
            rec.norm_s = self.gauge.scale(rec.wall_s)
            if sp is not None:
                stats = res.placement_stats or {}
                sp.attrs.update(promotions=stats.get("promotions", 0),
                                migrations=stats.get("migrations", 0))
            if artifact_dir is not None:
                rec.artifact_bytes = sum(
                    f.stat().st_size for f in artifact_dir.iterdir())
            rec.error = check(res, self.expected[label])
        except Exception:  # a raising search counts as failed, the loop goes on
            rec.error = traceback.format_exc()
        finally:
            if artifact_dir is not None:
                shutil.rmtree(artifact_dir, ignore_errors=True)
        if rec.error is not None:
            print(f"FAILED {label} observed={observed}: {rec.error}",
                  file=sys.stderr)
        self.searches.append(rec)
        return rec

    def round(self, index: int, order: List[Tuple[str, Scenario]],
              builder: StackBuilder) -> None:
        """Every search of the workload back to back, then (on plain
        workloads) the twin, plain and observed back to back."""
        observed_modes = (False, True) if self.workload.observe_all else (False,)
        with self._span("bench.grid"):
            for label, scenario in order:
                for observed in observed_modes:
                    self.search(label, scenario, builder, observed, "grid", index)
        twin = self.workload.twin
        if twin is not None:
            scenario = dict(self.workload.scenarios)[twin]
            with self._span("bench.twin"):
                for observed in (False, True):
                    self.search(twin, scenario, builder, observed, "twin", index)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def search_medians(searches: List[Search], normalized: bool = True
                   ) -> Dict[Tuple[str, bool], float]:
    """Each distinct search's median wall over the run's rounds."""
    walls: Dict[Tuple[str, bool], List[float]] = {}
    for s in searches:
        walls.setdefault(s.key, []).append(s.norm_s if normalized else s.wall_s)
    return {key: _median(v) for key, v in walls.items()}


def grid_wall(searches: List[Search], normalized: bool = True) -> float:
    """The wall of one whole grid: each search's median wall over the
    run's rounds, summed over the grid's searches."""
    return sum(search_medians(searches, normalized).values())


def measure(workload: Workload, expected: Dict[str, Dict[str, Any]],
            seconds: float, order_seed: int, traced: bool,
            scratch: Path) -> Tuple[Dict[str, Any], Dict[str, Any],
                                    Optional[ledger.SpanLog]]:
    """One benchmark run: returns (result line, sample counts, span log).

    After the set-up repetitions and a short warm-up, the run repeats
    rounds until ``seconds`` would be exceeded: one round is the whole
    grid plus, on plain workloads, the twin run plain then observed.
    Every timed section is reported at reference speed (SpeedGauge).
    Untraced, every round runs bare and the end-to-end metrics are
    reported.  Traced, rounds alternate bare and wrapped (so the run
    measures its own tracing overhead) and the per-layer ledger is
    reported.
    """
    scratch.mkdir(parents=True, exist_ok=True)
    log = ledger.SpanLog() if traced else None
    runner = Runner(workload, expected, scratch, log)
    order = list(workload.scenarios)
    random.Random(order_seed).shuffle(order)

    setup_s: List[float] = []
    with runner.tracing():
        for _ in range(SETUP_REPS):
            builder, wall = runner.setup()
            setup_s.append(wall)

    # Warm-up: one search per technique (and per observed mode), so lazy
    # imports and first calls land outside the timed rounds.
    warm: Dict[Tuple[str, bool], Tuple[str, Scenario]] = {}
    for label, scenario in order:
        for observed in (False, True) if workload.observe_all else (False,):
            warm.setdefault((scenario.technique, observed), (label, scenario))
    for (_, observed), (label, scenario) in warm.items():
        runner.search(label, scenario, builder, observed, "warmup")

    rounds: List[float] = []
    start = time.perf_counter()
    while len(rounds) < (2 if traced else 1) or (
            time.perf_counter() - start + _median(rounds) <= seconds):
        t0 = time.perf_counter()
        with runner.tracing(on=len(rounds) % 2 == 1):
            runner.round(len(rounds), order, builder)
        rounds.append(time.perf_counter() - t0)

    searches = runner.searches
    failed = sum(1 for s in searches if s.error is not None)
    grid = [s for s in searches if s.phase == "grid"]
    bare = [s for s in grid if not s.traced]
    plain = [s for s in bare if not s.observed]
    paired = [s for s in searches if s.round >= 0 and not s.traced
              and s.phase == ("grid" if workload.observe_all else "twin")]
    observed = [s for s in paired if s.observed]

    speed = REFERENCE_KERNEL_S / _median(runner.gauge.samples)
    if traced:
        metrics = ledger.layer_metrics(log)  # type: ignore[arg-type]
        metrics["bench.trace_overhead"] = (
            grid_wall([s for s in grid if s.traced and not s.observed])
            / grid_wall(plain))
        metrics["bench.speed"] = speed
        metrics["bench.failed_frac"] = failed / len(searches)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "grid_s": grid_wall(plain),
            "search_s.p50": _median(list(search_medians(plain).values())),
            "setup_s": _median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "observe_ratio": _observe_ratio(paired),
            "artifact_mb": _median([s.artifact_bytes / 1e6 for s in observed]),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": len(searches),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    samples = {
        "setup_reps": len(setup_s),
        "rounds": len(rounds),
        "traced_rounds": len(rounds) // 2 if traced else 0,
        "round_walls_s": [round(w, 4) for w in rounds],
        "raw_grid_s": grid_wall(plain, normalized=False),
        "speed": speed,
        "plain_searches": len(plain),
        "observed_searches": len(observed),
    }
    return result, samples, log


def _observe_ratio(paired: List[Search]) -> float:
    """Observed over plain wall of the same scenarios, run back to back:
    each search's median over the rounds, summed per mode."""
    sums = [0.0, 0.0]
    for (_, observed), wall in search_medians(paired).items():
        sums[observed] += wall
    return sums[1] / sums[0] if sums[0] else 0.0


PER_LAYER_UNITS: Dict[str, str] = {
    "traffic.synth_s": "s",
    "traffic.packets": "count",
    "cpu.lower_s": "s",
    "cpu.trace_mb": "MB",
    "parallel.build_s": "s",
    "parallel.engine_s": "s",
    **{f"parallel.{t}.search_s": "s" for t in ledger.TECHNIQUES},
    "mlffr.probes": "count",
    "mlffr.fail_frac": "frac",
    "mlffr.pass_probe_s": "s",
    "mlffr.fail_probe_s": "s",
    "mlffr.probe_ms.p50": "ms",
    "mlffr.probe_ms.p95": "ms",
    "mlffr.search_self_s": "s",
    "columnar.attempts": "count",
    "columnar.commits": "count",
    "columnar.ineligible": "count",
    "columnar.aborts": "count",
    "columnar.commit_ratio": "frac",
    "columnar.commit_s": "s",
    "columnar.abort_s": "s",
    "columnar.commit_kpps": "kpps",
    "scalar.runs": "count",
    "scalar.s": "s",
    "scalar.kpps": "kpps",
    "nic.wire_drops": "count",
    "nic.pcie_drops": "count",
    "nic.ring_drops": "count",
    "faults.plan_s": "s",
    "faults.injected": "count",
    "placement.promotions": "count",
    "placement.migrations": "count",
    "telemetry.events": "count",
    "telemetry.kept_frac": "frac",
    "telemetry.write_s": "s",
    "obs.spans": "count",
    "bench.grid_s": "s",
    "bench.harness_s": "s",
    "bench.ledger_coverage": "frac",
    "bench.trace_overhead": "x",
    "bench.speed": "x",
    "bench.failed_frac": "frac",
}

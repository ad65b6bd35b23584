"""Command-line interface: ``python -m repro.cli <subcommand>``.

Subcommands:

* ``programs``   — list the packet programs and their Table 1 properties.
* ``synthesize`` — build a workload trace and write it (SCRT or pcap).
* ``run``        — functional SCR run over a trace; verifies replica
  consistency against the single-threaded reference.
* ``mlffr``      — one MLFFR throughput measurement.
* ``sweep``      — throughput-vs-cores sweep across techniques, with
  optional CSV export.
* ``hardware``   — sequencer capacity/resources (Tofino + NetFPGA).
* ``inspect``    — summarize a ``--telemetry`` run artifact directory.
* ``bench``      — run the perf-regression suite (``BENCH_*.json``
  artifacts; exit 1 when a suite's own gate fails, such as
  ``obs_overhead``'s traced CPU-time ceiling) or, with ``--compare OLD
  NEW``, gate NEW against a baseline with noise-aware thresholds
  (nonzero exit on regression).
* ``chaos``      — run the curated fault-injection matrix (repro.faults):
  gap detection, recovery, and MLFFR-vs-drop-rate, written as a
  ``BENCH_chaos_recovery.json`` artifact (exit 1 if the gate fails).
* ``report``     — render one self-contained HTML dashboard from any mix
  of telemetry artifact directories and ``BENCH_*.json`` files
  (drop-cause Pareto, SLO table, span waterfalls, MLFFR curves);
  byte-deterministic for identical inputs.
* ``lint``       — scrlint: SCR-safety static analysis of the program zoo,
  the scaling engines, the fault/recovery subsystem, and the
  observability layer (rules SCR001–SCR006; exit 1 on findings).

``run``, ``mlffr``, and ``sweep`` accept ``--telemetry DIR``: the run is
instrumented (event trace, metrics, latency histograms) and a
:class:`~repro.telemetry.artifact.RunArtifact` is written under ``DIR``.
``mlffr`` and ``sweep`` (the simulator paths) additionally accept
``--trace-sample RATE``: causal ``span.*`` events are recorded for a
deterministic sample of packet indices (see :mod:`repro.obs`).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from .bench import render_scaling_series, render_table
from .bench.export import scaling_points_to_csv
from .core import ScrFunctionalEngine, reference_run
from .cpu.columnar import HOTPATH_ENV, HOTPATH_MODES
from .faults import FaultSpec
from .parallel import TECHNIQUES
from .programs import make_program, program_names, table1_rows
from .sequencer import NetFpgaSequencerModel, TofinoSequencerModel
from .telemetry import NULL_TELEMETRY, Telemetry, summarize_artifact
from .traffic import TRACE_DISTRIBUTIONS, Trace, read_pcap, synthesize_trace, write_pcap

__all__ = ["main", "build_parser"]


def _add_hotpath_arg(p: argparse.ArgumentParser) -> None:
    """``--hotpath`` on every simulating subcommand.

    ``main`` exports the choice through :data:`HOTPATH_ENV` so ``--jobs``
    worker processes inherit it (docs/HOTPATH.md).
    """
    p.add_argument(
        "--hotpath",
        choices=list(HOTPATH_MODES),
        default=None,
        help="simulator inner loop: columnar batch math (default) or the "
        "scalar reference event loop (results are bit-identical)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="State-compute replication (NSDI 2025) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("programs", help="list registered packet programs")

    p = sub.add_parser("synthesize", help="synthesize a workload trace")
    p.add_argument("--workload", choices=sorted(TRACE_DISTRIBUTIONS), default="univ_dc")
    p.add_argument("--flows", type=int, default=50)
    p.add_argument("--packets", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bidirectional", action="store_true")
    p.add_argument("--out", required=True, help=".scrt or .pcap output path")

    p = sub.add_parser("run", help="functional SCR run with verification")
    p.add_argument("--program", choices=program_names(), default="port_knocking")
    p.add_argument("--cores", type=int, default=4)
    p.add_argument("--trace-file", help="SCRT/pcap trace to replay")
    p.add_argument("--workload", choices=sorted(TRACE_DISTRIBUTIONS), default="univ_dc")
    p.add_argument("--flows", type=int, default=30)
    p.add_argument("--tenants", type=int, default=1,
                   help="partition flows across this many tenants and "
                        "report the occupancy split (repro.placement)")
    p.add_argument("--packets", type=int, default=2000)
    p.add_argument("--loss-rate", type=float, default=0.0,
                   help="drop this fraction of packets between sequencer "
                        "and cores (a FaultSpec drop rate seeded by --seed); "
                        "enables Algorithm 1 recovery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache-dir", metavar="DIR",
                   help="content-addressed trace cache (see docs/BENCHMARKS.md)")
    p.add_argument("--telemetry", metavar="DIR",
                   help="instrument the run and write a run artifact here")
    p.add_argument("--hostprof", metavar="DIR",
                   help="profile host wall time and write a hostprof "
                        "artifact here (see docs/PROFILING.md)")
    _add_hotpath_arg(p)

    p = sub.add_parser("mlffr", help="measure MLFFR throughput")
    p.add_argument("--program", choices=program_names(), default="ddos")
    p.add_argument("--workload", choices=sorted(TRACE_DISTRIBUTIONS) + ["single-flow"],
                   default="univ_dc")
    p.add_argument("--technique", choices=list(TECHNIQUES),
                   default="scr")
    p.add_argument("--cores", type=int, default=4)
    p.add_argument("--flows", type=int, default=60)
    p.add_argument("--packets", type=int, default=4000)
    p.add_argument("--tenants", type=int, default=1,
                   help="tenants sharing the data plane; >1 attaches a "
                        "PlacementSpec (hybrid placement, repro.placement)")
    p.add_argument("--tenant-quota", type=int, default=None, metavar="N",
                   help="max resident state entries per tenant "
                        "(default: unlimited)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="content-addressed trace cache (see docs/BENCHMARKS.md)")
    p.add_argument("--telemetry", metavar="DIR",
                   help="instrument the run and write a run artifact here")
    p.add_argument("--trace-sample", type=float, default=0.0, metavar="RATE",
                   help="with --telemetry: span-trace this fraction of "
                        "packet indices (deterministic; default 0)")
    p.add_argument("--hostprof", metavar="DIR",
                   help="profile host wall time and write a hostprof "
                        "artifact here (see docs/PROFILING.md)")
    _add_hotpath_arg(p)

    p = sub.add_parser("sweep", help="throughput-vs-cores sweep")
    p.add_argument("--program", choices=program_names(), default="ddos")
    p.add_argument("--workload", choices=sorted(TRACE_DISTRIBUTIONS) + ["single-flow"],
                   default="univ_dc")
    # No argparse choices here: Scenario.create validates names and its
    # "unknown technique" error (listing every valid name) is the contract.
    p.add_argument("--techniques", nargs="+",
                   default=["scr", "shared", "rss", "rss++"])
    p.add_argument("--cores", nargs="+", type=int, default=[1, 2, 4, 7])
    p.add_argument("--flows", type=int, default=60)
    p.add_argument("--packets", type=int, default=4000)
    p.add_argument("--tenants", type=int, default=1,
                   help="tenants sharing the data plane; >1 attaches a "
                        "PlacementSpec (hybrid placement, repro.placement)")
    p.add_argument("--tenant-quota", type=int, default=None, metavar="N",
                   help="max resident state entries per tenant "
                        "(default: unlimited)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes (results identical to --jobs 1)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="content-addressed trace cache (see docs/BENCHMARKS.md)")
    p.add_argument("--csv", help="write results to this CSV path")
    p.add_argument("--telemetry", metavar="DIR",
                   help="instrument the run and write a run artifact here")
    p.add_argument("--trace-sample", type=float, default=0.0, metavar="RATE",
                   help="with --telemetry: span-trace this fraction of "
                        "packet indices (deterministic; default 0)")
    p.add_argument("--hostprof", metavar="DIR",
                   help="profile host wall time and write a hostprof "
                        "artifact here (see docs/PROFILING.md)")
    _add_hotpath_arg(p)

    p = sub.add_parser("hardware", help="sequencer capacity and resources")
    p.add_argument("--rows", type=int, default=16, help="NetFPGA history rows")

    p = sub.add_parser("reproduce", help="re-measure a paper figure")
    p.add_argument("figure", help='figure id, e.g. "1", "6e", "7", "10a", or "list"')
    p.add_argument("--packets", type=int, default=4000)
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes (results identical to --jobs 1)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="content-addressed trace cache (see docs/BENCHMARKS.md)")
    p.add_argument("--csv", help="write the series to this CSV path")
    _add_hotpath_arg(p)

    p = sub.add_parser("inspect", help="summarize a telemetry run artifact")
    p.add_argument("dir", help="artifact directory (or manifest.json path)")

    p = sub.add_parser(
        "report", help="render an HTML dashboard from artifacts"
    )
    p.add_argument("inputs", nargs="+", metavar="INPUT",
                   help="telemetry artifact directories and/or "
                        "BENCH_*.json files")
    p.add_argument("--out", default="report.html", metavar="PATH",
                   help="output HTML path (default report.html)")

    p = sub.add_parser(
        "bench", help="perf-regression bench suite and compare gate"
    )
    p.add_argument("--list", action="store_true", help="list the suites")
    p.add_argument("--suite", action="append", metavar="NAME",
                   help="suite(s) to run (default: all); repeatable")
    p.add_argument("--out", default="results/bench", metavar="DIR",
                   help="directory for BENCH_*.json artifacts")
    p.add_argument("--reps", type=int, default=3,
                   help="repetitions per point (median + MAD reported)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the pinned base seed (breaks baseline "
                        "comparability; recorded in the artifact)")
    p.add_argument("--full", action="store_true",
                   help="paper-scale grids instead of the quick suite")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes (artifacts identical to --jobs 1)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="content-addressed trace cache (see docs/BENCHMARKS.md)")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                   help="compare two artifacts/directories instead of running")
    p.add_argument("--markdown", metavar="PATH",
                   help="with --compare: also write the report to PATH")
    p.add_argument("--rel-tol", type=float, default=None,
                   help="relative significance band (default 0.05)")
    p.add_argument("--noise-mult", type=float, default=None,
                   help="multiplier on summed MADs (default 3.0)")
    p.add_argument("--hostprof", metavar="DIR",
                   help="profile host wall time of the suite runs and "
                        "write a hostprof artifact here")
    _add_hotpath_arg(p)

    p = sub.add_parser(
        "profile",
        help="host wall-clock profile of one scenario (repro.hostprof)",
    )
    p.add_argument("--program", choices=program_names(), default="ddos")
    p.add_argument("--workload",
                   choices=sorted(TRACE_DISTRIBUTIONS) + ["single-flow"],
                   default="univ_dc")
    p.add_argument("--technique", choices=list(TECHNIQUES),
                   default="scr")
    p.add_argument("--cores", type=int, default=4)
    p.add_argument("--packets", type=int, default=2000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--deep", action="store_true",
                   help="also capture cProfile function stats and "
                        "tracemalloc per-phase allocation peaks (slow)")
    p.add_argument("--top", type=int, default=12,
                   help="phase-Pareto rows to print (default 12)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="content-addressed trace cache (see docs/BENCHMARKS.md)")
    p.add_argument("--out", default="results/hostprof", metavar="DIR",
                   help="artifact directory (hostprof.json, profile.folded, "
                        "profile.speedscope.json)")
    _add_hotpath_arg(p)

    p = sub.add_parser(
        "chaos", help="fault-injection matrix: detection, recovery, MLFFR"
    )
    p.add_argument("--seed", type=int, default=7,
                   help="fault-plan and workload seed (default 7)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for the MLFFR sweep "
                        "(artifact byte-identical to --jobs 1)")
    p.add_argument("--out", default="results/chaos", metavar="DIR",
                   help="directory for the BENCH_chaos_recovery.json artifact")
    p.add_argument("--full", action="store_true",
                   help="longer traces (2000/3000 packets) instead of quick")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="content-addressed trace cache (see docs/BENCHMARKS.md)")
    _add_hotpath_arg(p)

    p = sub.add_parser(
        "lint", help="SCR-safety static analysis (scrlint, SCR001–SCR007)"
    )
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="files/directories to lint "
                        "(default: programs, parallel, faults)")
    p.add_argument("--format", choices=["text", "json", "sarif"],
                   default="text",
                   help="report format (json is what CI archives; sarif "
                        "feeds code-scanning UIs)")
    p.add_argument("--select", metavar="RULE[,RULE]",
                   help="run only these rules (e.g. SCR007 or scr1,scr5)")
    p.add_argument("--ignore", metavar="RULE[,RULE]",
                   help="skip these rules")
    p.add_argument("--list-rules", action="store_true",
                   help="list the registered rules and exit")

    p = sub.add_parser(
        "advise",
        help="predict the best parallelization technique per program "
             "(static dataflow facts + Appendix A cost model)",
    )
    p.add_argument("--program", action="append", dest="programs",
                   choices=program_names(), metavar="NAME",
                   help="advise only this program (repeatable; "
                        "default: all registered programs)")
    p.add_argument("--facts-only", action="store_true",
                   help="emit the static state-facts document and skip "
                        "the cost-model scoring")
    p.add_argument("--bench", metavar="BENCH.json",
                   help="take d/c1/c2/t from this artifact's embedded "
                        "table4_params instead of the built-in Table 4")
    p.add_argument("--workload", choices=sorted(TRACE_DISTRIBUTIONS) + ["single-flow"],
                   default="univ_dc")
    p.add_argument("--flows", type=int, default=40)
    p.add_argument("--packets", type=int, default=1500)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--cores", nargs="+", type=int,
                   default=[1, 2, 3, 4, 5, 6, 7, 8],
                   help="core counts to predict; the winner is decided "
                        "at the largest")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("validate", help="check a program's SCR safety")
    p.add_argument("--program", choices=program_names(), required=True)
    p.add_argument("--workload", choices=sorted(TRACE_DISTRIBUTIONS), default="univ_dc")
    p.add_argument("--flows", type=int, default=20)
    p.add_argument("--packets", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cache_for(args) -> "Optional[TraceCache]":
    from .scenario import TraceCache

    if getattr(args, "cache_dir", None):
        return TraceCache(args.cache_dir)
    return None


def _placement_for(args):
    """A PlacementSpec when ``--tenants``/``--tenant-quota`` were given,
    else None (single-tenant scenarios carry no placement config).  May
    raise ValueError; callers report it like Scenario.create's errors."""
    from .placement import PlacementSpec

    tenants = getattr(args, "tenants", 1)
    quota = getattr(args, "tenant_quota", None)
    if tenants == 1 and quota is None:
        return None
    return PlacementSpec(num_tenants=tenants, tenant_quota=quota)


def _run_trace_spec(args) -> "Optional[TraceSpec]":
    """The workload ``run`` synthesizes (None with ``--trace-file``).  May
    raise ValueError; the caller reports it like Scenario.create's errors."""
    from .scenario import TraceSpec

    if args.trace_file:
        return None
    return TraceSpec(
        workload=args.workload,
        num_flows=args.flows,
        max_packets=args.packets,
        seed=args.seed,
        bidirectional=bool(make_program(args.program).bidirectional),
        packet_size=None,
    )


def _read_trace_file(path: str) -> Trace:
    """Load ``--trace-file`` (pcap by extension, else SCRT).  Raises
    ValueError with a one-line reason for a missing, truncated or corrupt
    file."""
    try:
        if path.endswith(".pcap"):
            return read_pcap(path)
        return Trace.load(path)
    except OSError as exc:
        raise ValueError(f"cannot read trace file {path}: "
                         f"{exc.strerror or exc}") from None
    except ValueError as exc:
        reason = str(exc)
        prefix = f"{Path(path)}: "
        if reason.startswith(prefix):
            reason = reason[len(prefix):]
        raise ValueError(f"cannot read trace file {path}: {reason}") from None


def cmd_programs(args, out) -> int:
    rows = table1_rows()
    print(render_table(
        ["program", "metadata (B)", "RSS fields", "atomics vs locks"],
        [[r["program"], r["metadata_bytes"], r["rss_fields"], r["atomics_or_locks"]]
         for r in rows],
        title="Table 1 programs",
    ), file=out)
    extensions = sorted(set(program_names()) - {r["program"] for r in rows})
    print(f"extensions: {', '.join(extensions)}", file=out)
    return 0


def cmd_synthesize(args, out) -> int:
    trace = synthesize_trace(
        TRACE_DISTRIBUTIONS[args.workload](),
        args.flows,
        seed=args.seed,
        bidirectional=args.bidirectional,
        max_packets=args.packets,
    )
    if args.out.endswith(".pcap"):
        write_pcap(trace, args.out)
    else:
        trace.save(args.out)
    stats = trace.stats(bidirectional=args.bidirectional)
    print(f"wrote {stats.packets} packets / {stats.flows} flows to {args.out} "
          f"(top flow {stats.top_flow_share:.0%})", file=out)
    return 0


def _telemetry_for(args) -> Telemetry:
    """An enabled Telemetry when ``--telemetry DIR`` was given, else no-op.

    ``--trace-sample RATE`` attaches a span emitter keyed on the run's
    seed, so which packets carry a trace is the same in every process.
    """
    if not getattr(args, "telemetry", None):
        return NULL_TELEMETRY
    tele = Telemetry()
    rate = getattr(args, "trace_sample", 0.0) or 0.0
    if rate > 0.0:
        from .obs import SpanEmitter, SpanSampler

        seed = getattr(args, "seed", 0) or 0
        tele.spans = SpanEmitter(tele.tracer, SpanSampler(seed, rate))
    return tele


def _config_from(args, *names) -> dict:
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _hostprof_for(args):
    """An enabled PhaseClock when ``--hostprof DIR`` was given, else the
    shared disabled singleton (one dormant branch per guard)."""
    from .hostprof import NULL_HOSTPROF, PhaseClock

    if getattr(args, "hostprof", None):
        return PhaseClock(enabled=True)
    return NULL_HOSTPROF


def _finish_hostprof(hp, args, out) -> bool:
    """Write the hostprof artifact; returns False (with a message) on I/O
    failure.  No-op for the disabled singleton."""
    if not hp.enabled:
        return True
    from .hostprof import HostProfile

    profile = HostProfile.create(
        command=args.command,
        config=_config_from(
            args, "program", "workload", "technique", "techniques",
            "cores", "packets", "flows", "tenants", "seed", "jobs", "suite",
        ),
        clock=hp,
    )
    try:
        path = profile.save(args.hostprof)
    except OSError as exc:
        print(f"error: cannot write host profile to "
              f"{args.hostprof!r}: {exc}", file=out)
        return False
    print(f"host profile: {path} ({len(profile.phases)} phases, "
          f"{profile.total_wall_ns() / 1e6:.1f} ms wall)", file=out)
    return True


def _record_cache_metrics(tele, cache) -> None:
    """Fold the serial-path TraceCache counters into the run's registry so
    `scr-repro inspect` can report hit/miss/corrupt-evict rates.  Parallel
    workers hold their own cache objects; their counters stay worker-local
    (the artifact then simply predates the counters, which inspect notes
    gracefully)."""
    if cache is None or not tele.enabled:
        return
    stats = cache.stats()
    reg = tele.registry
    reg.counter(
        "trace_cache_hits", help="TraceCache hits (trace + perf-trace loads)"
    ).inc(stats["hits"])
    reg.counter(
        "trace_cache_misses", help="TraceCache misses (absent entries)"
    ).inc(stats["misses"])
    reg.counter(
        "trace_cache_corrupt_evictions",
        help="TraceCache entries deleted as corrupt/poisoned (self-heal)",
    ).inc(stats["corrupt_evictions"])


def _finish_telemetry(tele, args, out, num_cores, extra_metrics=None) -> bool:
    """Write the run artifact; returns False (with a message) on I/O failure."""
    if not tele.enabled:
        return True
    try:
        artifact = tele.write_artifact(
            args.telemetry,
            command=args.command,
            config=_config_from(
                args, "program", "workload", "technique", "techniques",
                "cores", "packets", "flows", "tenants", "tenant_quota",
                "loss_rate", "seed", "trace_sample",
            ),
            extra_metrics=extra_metrics,
            num_cores=num_cores,
        )
    except OSError as exc:
        print(f"error: cannot write telemetry artifact to "
              f"{args.telemetry!r}: {exc}", file=out)
        return False
    print(f"telemetry artifact: {args.telemetry} "
          f"({artifact.events_emitted} events, "
          f"{len(artifact.event_type_counts)} types)", file=out)
    return True


def cmd_run(args, out) -> int:
    if args.tenants < 1:
        print(f"error: --tenants must be >= 1, got {args.tenants}", file=out)
        return 2
    try:
        faults = (FaultSpec(seed=args.seed, drop_rate=args.loss_rate)
                  if args.loss_rate else None)
    except ValueError as exc:
        print(f"error: --loss-rate: {exc}", file=out)
        return 2
    cache = _cache_for(args)
    hp = _hostprof_for(args)
    tele = _telemetry_for(args)
    try:
        spec = _run_trace_spec(args)
        engine = ScrFunctionalEngine(
            make_program(args.program),
            num_cores=args.cores,
            with_recovery=faults is not None,
            faults=faults,
            tracer=tele.tracer,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    if spec is None:
        try:
            trace = _read_trace_file(args.trace_file)
        except ValueError as exc:
            print(f"error: {exc}", file=out)
            return 2
    else:
        from .scenario import StackBuilder

        trace = StackBuilder(cache, hostprof=hp).trace(spec)
    with hp.phase("func.run"):
        result = engine.run(trace)
    with hp.phase("func.reference"):
        ref_verdicts, ref_state = reference_run(make_program(args.program), trace)
    consistent = result.replicas_consistent
    matches = (
        not result.lost_seqs
        and result.replica_snapshots[0] == ref_state
        and result.verdicts == ref_verdicts
    )
    print(f"program={args.program} cores={args.cores} "
          f"packets={result.offered} lost={len(result.lost_seqs)} "
          f"recovered={result.recovered}", file=out)
    print(f"replicas consistent: {consistent}", file=out)
    if not result.lost_seqs:
        print(f"matches single-threaded reference: {matches}", file=out)
    if args.tenants > 1:
        from .placement import tenant_of

        occupancy: dict = {}
        for flow in trace.flow_sizes():
            t = tenant_of(flow, args.tenants, args.seed)
            occupancy[t] = occupancy.get(t, 0) + 1
        print(f"tenants: {args.tenants} ({len(occupancy)} occupied, "
              f"busiest holds {max(occupancy.values())} flows)", file=out)
    if tele.enabled:
        reg = tele.registry
        reg.counter("packets_offered").inc(result.offered)
        reg.counter("packets_lost").inc(len(result.lost_seqs))
        reg.counter("packets_recovered").inc(result.recovered)
        reg.counter("packets_skipped").inc(result.skipped)
        reg.gauge("replicas_consistent").set(1.0 if consistent else 0.0)
        _record_cache_metrics(tele, cache)
        if not _finish_telemetry(tele, args, out, num_cores=args.cores):
            return 2
    if not _finish_hostprof(hp, args, out):
        return 2
    return 0 if consistent else 1


def _result_metrics(results) -> Optional[dict]:
    """Extra artifact metrics from the last instrumented scenario result."""
    extra = {}
    for result in results:
        if result.counters is not None:
            extra["counters"] = result.counters
        if result.latency_ns is not None:
            extra["latency_ns"] = result.latency_ns
    return extra or None


def cmd_mlffr(args, out) -> int:
    from .scenario import Scenario, ScenarioExecutor

    tele = _telemetry_for(args)
    hp = _hostprof_for(args)
    cache = _cache_for(args)
    try:
        scenario = Scenario.create(
            args.program, args.workload, args.technique, args.cores,
            num_flows=args.flows, max_packets=args.packets,
            placement=_placement_for(args),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    executor = ScenarioExecutor(
        cache=cache, telemetry=tele if tele.enabled else None, hostprof=hp
    )
    result = executor.run_one(scenario)
    print(f"{args.program} @ {args.workload}, {args.technique}, "
          f"{args.cores} cores: {result.mlffr_mpps:.2f} Mpps "
          f"({result.iterations} search iterations)", file=out)
    stats = result.placement_stats
    if stats is not None:
        print(f"placement: {stats['promotions']} promotions, "
              f"{stats['demotions']} demotions, "
              f"{stats['migrations']} migrations, "
              f"{stats['tenant_quota_drops_total']} quota drops", file=out)
    _record_cache_metrics(tele, cache)
    if not _finish_telemetry(tele, args, out, num_cores=args.cores,
                             extra_metrics=_result_metrics([result])):
        return 2
    if not _finish_hostprof(hp, args, out):
        return 2
    return 0


def cmd_sweep(args, out) -> int:
    from .bench.figures import scaling_series
    from .scenario import ScenarioExecutor, scenario_grid

    if args.jobs < 1:
        print("--jobs must be >= 1", file=out)
        return 2
    tele = _telemetry_for(args)
    try:
        grid = scenario_grid(
            args.program, args.workload, args.techniques, args.cores,
            num_flows=args.flows, max_packets=args.packets,
            placement=_placement_for(args),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    hp = _hostprof_for(args)
    cache = _cache_for(args)
    executor = ScenarioExecutor(
        jobs=args.jobs, cache=cache,
        telemetry=tele if tele.enabled else None,
        hostprof=hp,
    )
    results = executor.run(grid)
    print(render_scaling_series(
        scaling_series(results), title=f"{args.program} @ {args.workload} (Mpps)"
    ), file=out)
    if args.csv:
        path = scaling_points_to_csv(results, args.csv)
        print(f"wrote {path}", file=out)
    _record_cache_metrics(tele, cache)
    if not _finish_telemetry(tele, args, out, num_cores=max(args.cores),
                             extra_metrics=_result_metrics(results)):
        return 2
    if not _finish_hostprof(hp, args, out):
        return 2
    return 0


def cmd_hardware(args, out) -> int:
    tofino = TofinoSequencerModel()
    rows = []
    for name in program_names(stateful_only=True):
        prog = make_program(name)
        rows.append([name, prog.metadata_size, tofino.max_cores(prog)])
    print(render_table(
        ["program", "metadata (B)", "Tofino max cores"], rows,
        title=f"Tofino: {tofino.history_fields} 32-bit history fields",
    ), file=out)
    fpga = NetFpgaSequencerModel(args.rows)
    luts, _, ffs = fpga.synthesis_row()
    print(f"\nNetFPGA @ {args.rows} rows: {luts} LUTs "
          f"({fpga.lut_utilization_pct():.3f}%), {ffs} FFs "
          f"({fpga.ff_utilization_pct():.3f}%), "
          f"timing @250 MHz: {'met' if fpga.meets_timing() else 'NOT met'}, "
          f"{fpga.bandwidth_gbps():.0f} Gbit/s", file=out)
    return 0


def cmd_reproduce(args, out) -> int:
    from .bench.export import series_to_csv
    from .bench.figures import FIGURE_PRESETS, preset_scenarios, scaling_series
    from .scenario import ScenarioExecutor

    if args.figure == "list":
        for name, preset in FIGURE_PRESETS.items():
            print(f"{name:>4}  {preset.describe()}", file=out)
        return 0
    try:
        preset = FIGURE_PRESETS[args.figure]
    except KeyError:
        print(f"unknown figure {args.figure!r}; try 'reproduce list'", file=out)
        return 2
    if args.jobs < 1:
        print("--jobs must be >= 1", file=out)
        return 2
    try:
        grid = preset_scenarios(preset, max_packets=args.packets)
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    executor = ScenarioExecutor(jobs=args.jobs, cache=_cache_for(args))
    series = scaling_series(executor.run(grid))
    print(render_scaling_series(series, title=f"{preset.describe()} (Mpps)"),
          file=out)
    if args.csv:
        path = series_to_csv(series, args.csv)
        print(f"wrote {path}", file=out)
    return 0


def cmd_inspect(args, out) -> int:
    import json

    from .telemetry.artifact import EventLogError

    path = Path(args.dir)
    if path.is_dir() and not (path / "manifest.json").exists():
        contents = "empty" if not any(path.iterdir()) else "no manifest.json"
        print(f"{args.dir!r} is not a telemetry run artifact ({contents}); "
              "produce one with run/mlffr/sweep --telemetry DIR", file=out)
        return 2
    try:
        print(summarize_artifact(args.dir), file=out)
    except EventLogError as exc:
        print(f"error: {exc}", file=out)
        return 2
    except (FileNotFoundError, NotADirectoryError):
        print(f"no run artifact at {args.dir!r} "
              "(expected a manifest.json written by --telemetry)", file=out)
        return 2
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"malformed run artifact at {args.dir!r}: {exc}", file=out)
        return 2
    except OSError as exc:
        print(f"cannot read run artifact at {args.dir!r}: {exc}", file=out)
        return 2
    return 0


def cmd_report(args, out) -> int:
    from .obs.report import write_report

    try:
        path = write_report(args.inputs, args.out)
    except ValueError as exc:
        print(f"report error: {exc}", file=out)
        return 2
    except OSError as exc:
        print(f"report error: cannot read/write: {exc}", file=out)
        return 2
    print(f"wrote {path}", file=out)
    return 0


def _cmd_bench_compare(args, out) -> int:
    from .perf import CompareError, compare_paths, markdown_report
    from .perf.compare import DEFAULT_NOISE_MULT, DEFAULT_REL_TOL

    old_path, new_path = args.compare
    try:
        results, extra = compare_paths(
            old_path, new_path,
            rel_tol=args.rel_tol if args.rel_tol is not None else DEFAULT_REL_TOL,
            noise_mult=(args.noise_mult if args.noise_mult is not None
                        else DEFAULT_NOISE_MULT),
        )
    except CompareError as exc:
        print(f"compare error: {exc}", file=out)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare error: cannot load artifacts: {exc}", file=out)
        return 2
    report = markdown_report(results, extra_artifacts=extra)
    print(report, file=out)
    if args.markdown:
        md = Path(args.markdown)
        md.parent.mkdir(parents=True, exist_ok=True)
        md.write_text(report)
        print(f"wrote {md}", file=out)
    regressed = any(r.verdict == "regression" for r in results)
    return 1 if regressed else 0


def cmd_bench(args, out) -> int:
    from .perf import BASE_SEED, SuiteParams, run_suite, suite_names
    from .perf.suite import SuiteGateError

    if args.list:
        for name in suite_names():
            print(name, file=out)
        return 0
    if args.compare:
        return _cmd_bench_compare(args, out)
    names = args.suite or suite_names()
    unknown = sorted(set(names) - set(suite_names()))
    if unknown:
        print(f"unknown suite(s): {', '.join(unknown)}; "
              f"available: {', '.join(suite_names())}", file=out)
        return 2
    if args.reps < 1:
        print("--reps must be >= 1", file=out)
        return 2
    if args.jobs < 1:
        print("--jobs must be >= 1", file=out)
        return 2
    hp = _hostprof_for(args)
    params = SuiteParams(
        reps=args.reps,
        base_seed=args.seed if args.seed is not None else BASE_SEED,
        quick=not args.full,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        hostprof=hp,
    )
    gate_failures = []
    for name in names:
        with hp.phase(f"suite.{name}"):
            try:
                artifact = run_suite(name, params)
            except SuiteGateError as exc:
                artifact = exc.artifact
                gate_failures.append(str(exc))
        try:
            path = artifact.save(args.out)
        except OSError as exc:
            print(f"error: cannot write bench artifact to "
                  f"{args.out!r}: {exc}", file=out)
            return 2
        npoints = sum(len(s.points) for s in artifact.series.values())
        print(f"{path}: {len(artifact.series)} series, {npoints} points, "
              f"{params.reps} reps (seeds {params.rep_seeds})", file=out)
    if not _finish_hostprof(hp, args, out):
        return 2
    for message in gate_failures:
        print(f"error: {message}", file=out)
    return 1 if gate_failures else 0


def cmd_profile(args, out) -> int:
    """One scenario, MLFFR-measured with host wall-clock phases on.

    Simulated results are bit-identical to an unprofiled run (the clock
    never feeds simulated time); the artifact answers "where does the
    harness's real time go" — see docs/PROFILING.md.
    """
    from .hostprof import DeepCapture, HostProfile, PhaseClock
    from .scenario import Scenario, ScenarioExecutor

    clock = PhaseClock(enabled=True)
    deep = None
    if args.deep:
        deep = DeepCapture()
        deep.attach(clock)
        deep.start()
    try:
        scenario = Scenario.create(
            args.program, args.workload, args.technique, args.cores,
            max_packets=args.packets, seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    executor = ScenarioExecutor(cache=_cache_for(args), hostprof=clock)
    result = executor.run_one(scenario)
    if deep is not None:
        deep.stop()
    profile = HostProfile.create(
        command="profile",
        config=_config_from(args, "program", "workload", "technique",
                            "cores", "packets", "seed", "deep"),
        clock=clock,
        deep=deep.snapshot() if deep is not None else None,
    )
    try:
        path = profile.save(args.out)
    except OSError as exc:
        print(f"error: cannot write host profile to {args.out!r}: {exc}",
              file=out)
        return 2
    print(f"{args.program} @ {args.workload}, {args.technique}, "
          f"{args.cores} cores: {result.mlffr_mpps:.2f} Mpps "
          f"({result.iterations} search iterations)", file=out)
    print(f"host wall: {profile.total_wall_ns() / 1e6:.1f} ms across "
          f"{len(profile.phases)} phases", file=out)
    for line in profile.pareto_lines(top=args.top):
        print(f"  {line}", file=out)
    print(f"wrote {path} (+ profile.folded, profile.speedscope.json)",
          file=out)
    return 0


def cmd_chaos(args, out) -> int:
    from .faults.matrix import ChaosMatrixParams, run_chaos_matrix

    if args.jobs < 1:
        print("--jobs must be >= 1", file=out)
        return 2
    report = run_chaos_matrix(ChaosMatrixParams(
        seed=args.seed,
        jobs=args.jobs,
        quick=not args.full,
        cache_dir=args.cache_dir,
    ))
    for line in report.summary_lines():
        print(line, file=out)
    artifact = report.artifact
    assert artifact is not None
    try:
        path = artifact.save(args.out)
    except OSError as exc:
        print(f"error: cannot write chaos artifact to {args.out!r}: {exc}",
              file=out)
        return 2
    print(f"wrote {path}", file=out)
    return 0 if report.ok else 1


def _split_rule_ids(raw) -> "List[str]":
    """``SCR001,scr5`` / repeated flags → a flat list of tokens."""
    out: List[str] = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if chunk:
            out.append(chunk)
    return out


def cmd_lint(args, out) -> int:
    from .analysis import (
        all_rules,
        format_json,
        format_sarif,
        format_text,
        get_rule,
        lint_paths,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.title}  [{rule.paper_ref}]", file=out)
        return 0
    rules = all_rules()
    try:
        if args.select:
            rules = [get_rule(r) for r in _split_rule_ids(args.select)]
        if args.ignore:
            dropped = {get_rule(r).id for r in _split_rule_ids(args.ignore)}
            rules = [r for r in rules if r.id not in dropped]
    except KeyError as exc:
        # get_rule's message includes near-miss suggestions (scr7 → SCR007).
        print(f"lint error: {exc.args[0]}", file=out)
        return 2
    if not rules:
        print("lint error: --select/--ignore left no rules to run", file=out)
        return 2
    try:
        report = lint_paths(args.paths or None, rules=rules)
    except FileNotFoundError as exc:
        print(f"lint error: {exc}", file=out)
        return 2
    except OSError as exc:
        print(f"lint error: cannot read sources: {exc}", file=out)
        return 2
    if args.format == "json":
        print(format_json(report), file=out)
    elif args.format == "sarif":
        print(format_sarif(report, rules), file=out)
    else:
        print(format_text(report), file=out)
    return 0 if report.ok else 1


def cmd_advise(args, out) -> int:
    import json as _json

    from .perf.advise import (
        advice_report,
        advise_programs,
        facts_report,
        load_bench_costs,
    )

    programs = args.programs or None
    if args.facts_only:
        payload = facts_report(programs)
        if args.format == "json":
            print(_json.dumps(payload, indent=2, sort_keys=True), file=out)
        else:
            for row in payload["programs"]:
                fields = ", ".join(
                    f"{f['field']}[{'+'.join(f['kinds'])}]"
                    for f in row["fields"]
                ) or "-"
                print(f"{row['program']:15s} {row['key_locality']:10s} "
                      f"commutative={str(row['all_commutative']):5s} "
                      f"fields: {fields}", file=out)
        return 0
    table4 = None
    if args.bench:
        try:
            table4 = load_bench_costs(args.bench)
        except (OSError, ValueError, KeyError) as exc:
            print(f"advise error: {exc}", file=out)
            return 2
    try:
        advices = advise_programs(
            programs,
            workload=args.workload,
            num_flows=args.flows,
            max_packets=args.packets,
            seed=args.seed,
            cores=args.cores,
            table4=table4,
        )
    except ValueError as exc:
        print(f"advise error: {exc}", file=out)
        return 2
    if args.format == "json":
        config = {
            "workload": args.workload, "num_flows": args.flows,
            "max_packets": args.packets, "seed": args.seed,
            "cores": sorted(set(args.cores)),
            "costs": args.bench or "table4",
        }
        print(_json.dumps(advice_report(advices, config), indent=2,
                          sort_keys=True), file=out)
        return 0
    for advice in advices:
        k = advice.decision_cores
        print(f"{advice.program}: use {advice.recommended} "
              f"(decided at k={k})", file=out)
        for score in advice.scores:
            if not score.eligible:
                print(f"    {score.technique:12s} ineligible — {score.reason}",
                      file=out)
                continue
            marker = " <-- recommended" if (
                score.technique == advice.recommended) else ""
            print(f"    {score.technique:12s} {score.at(k):7.1f} Mpps @ k={k}"
                  f"{marker}", file=out)
    return 0


def cmd_validate(args, out) -> int:
    from .core import validate_program

    program = make_program(args.program)
    trace = synthesize_trace(
        TRACE_DISTRIBUTIONS[args.workload](),
        args.flows,
        seed=args.seed,
        bidirectional=program.bidirectional,
        max_packets=args.packets,
    )
    report = validate_program(program, list(trace))
    if report.ok:
        print(f"{args.program}: SCR-safe "
              f"({report.packets_checked} packets checked)", file=out)
        return 0
    print(f"{args.program}: NOT SCR-safe:", file=out)
    for problem in report.problems:
        print(f"  - {problem}", file=out)
    return 1


_COMMANDS = {
    "programs": cmd_programs,
    "synthesize": cmd_synthesize,
    "run": cmd_run,
    "mlffr": cmd_mlffr,
    "sweep": cmd_sweep,
    "hardware": cmd_hardware,
    "reproduce": cmd_reproduce,
    "inspect": cmd_inspect,
    "report": cmd_report,
    "bench": cmd_bench,
    "profile": cmd_profile,
    "chaos": cmd_chaos,
    "lint": cmd_lint,
    "advise": cmd_advise,
    "validate": cmd_validate,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "hotpath", None):
        # Exported (not passed point-to-point) so --jobs worker processes
        # inherit the selected simulator inner loop.
        os.environ[HOTPATH_ENV] = args.hotpath
    try:
        return _COMMANDS[args.command](args, out if out is not None else sys.stdout)
    except BrokenPipeError:
        # Output piped into a consumer that closed early (e.g. head):
        # exit quietly like a well-behaved Unix tool.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())

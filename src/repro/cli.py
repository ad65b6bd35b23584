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

Every flag that describes a run is defined once, in :data:`FLAG_SCHEMA`;
its range check lives in the value object it maps onto (docs/API.md).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from .bench import render_scaling_series, render_table
from .bench.export import scaling_points_to_csv
from .core import ScrFunctionalEngine, reference_run
from .cpu.columnar import HOTPATH_ENV, HOTPATH_MODES
from .faults import FaultSpec
from .parallel import TECHNIQUES
from .programs import make_program, program_names, table1_rows
from .scenario.spec import SINGLE_FLOW_WORKLOAD, TraceSpec
from .sequencer import NetFpgaSequencerModel, TofinoSequencerModel
from .telemetry import NULL_TELEMETRY, Telemetry, summarize_artifact
from .traffic import TRACE_DISTRIBUTIONS, Trace, read_pcap, synthesize_trace, write_pcap

__all__ = ["main", "build_parser", "Flag", "FlagSchema", "FLAG_SCHEMA"]


#: Scenario workloads: the synthesized distributions plus Figure 1's flow.
_WORKLOADS = sorted(TRACE_DISTRIBUTIONS) + [SINGLE_FLOW_WORKLOAD]
#: ``--workload`` for the subcommands that synthesize with ``synthesize_trace``.
_TRACE_WORKLOAD = {"default": "univ_dc", "choices": sorted(TRACE_DISTRIBUTIONS)}


@dataclass(frozen=True)
class Flag:
    """One flag, defined once for every subcommand that takes it.

    ``kwargs`` go to ``add_argument`` (each subcommand supplies its own
    default).  ``field`` names the value-object field the flag maps onto:
    a ``ValueError`` whose message starts with it is reported against the
    flag.  ``records`` lists the artifact configs that record its value.
    """

    option: str
    kwargs: Mapping[str, Any]
    field: str = ""
    records: Tuple[str, ...] = ()


class FlagSchema(Dict[str, Flag]):
    """Flags by dest, declared with argparse's ``add_argument`` signature."""

    def add_argument(self, option: str, *, field: str = "",
                     records: Tuple[str, ...] = (), **kwargs: Any) -> None:
        self[option[2:].replace("-", "_")] = Flag(option, kwargs, field, records)


#: The flags that describe a run.  Range checks live in the value objects
#: they map onto (TraceSpec, Scenario, PlacementSpec, FaultSpec,
#: SpanSampler, ScenarioExecutor, SuiteParams, ChaosMatrixParams), never
#: here; adding a flag is one entry plus the subcommands that take it.
FLAG_SCHEMA = FlagSchema()
_BOTH = ("telemetry", "hostprof")
FLAG_SCHEMA.add_argument("--program", records=_BOTH, choices=program_names(),
                         help="packet program (see `programs`)")
FLAG_SCHEMA.add_argument("--workload", records=_BOTH, choices=_WORKLOADS,
                         help="workload flow-size distribution")
FLAG_SCHEMA.add_argument("--technique", records=_BOTH, choices=list(TECHNIQUES),
                         help="parallelization technique")
# No argparse choices: Scenario.create's "unknown technique" error (listing
# every valid name) is the contract.
FLAG_SCHEMA.add_argument("--techniques", records=_BOTH, nargs="+",
                         help="parallelization techniques to compare")
FLAG_SCHEMA.add_argument("--cores", records=_BOTH, type=int, help="CPU cores")
FLAG_SCHEMA.add_argument("--packets", field="max_packets", records=_BOTH,
                         type=int, help="packets in the synthesized trace")
FLAG_SCHEMA.add_argument("--flows", field="num_flows", records=_BOTH, type=int,
                         help="flows in the synthesized trace")
FLAG_SCHEMA.add_argument("--tenants", field="num_tenants", records=_BOTH,
                         type=int, help="tenants sharing the data plane; >1 "
                         "attaches a PlacementSpec (repro.placement)")
FLAG_SCHEMA.add_argument("--tenant-quota", field="tenant_quota",
                         records=("telemetry",), type=int, metavar="N",
                         help="max resident state entries per tenant "
                              "(default: unlimited)")
FLAG_SCHEMA.add_argument("--loss-rate", field="drop_rate", records=("telemetry",),
                         type=float, help="drop this fraction of packets "
                         "between sequencer and cores (a FaultSpec drop rate "
                         "seeded by --seed); enables Algorithm 1 recovery")
FLAG_SCHEMA.add_argument("--seed", field="seed", records=_BOTH, type=int,
                         help="workload seed")
FLAG_SCHEMA.add_argument("--trace-sample", field="rate", records=("telemetry",),
                         type=float, metavar="RATE",
                         help="with --telemetry: span-trace this fraction of "
                              "packet indices (deterministic; default 0)")
FLAG_SCHEMA.add_argument("--reps", field="reps", type=int,
                         help="repetitions per point (median + MAD reported)")
FLAG_SCHEMA.add_argument("--jobs", field="jobs", records=("hostprof",), type=int,
                         metavar="N",
                         help="worker processes (output identical to --jobs 1)")
FLAG_SCHEMA.add_argument("--suite", records=("hostprof",), action="append",
                         metavar="NAME",
                         help="suite(s) to run (default: all); repeatable")
FLAG_SCHEMA.add_argument("--deep", records=("hostprof",), action="store_true",
                         help="also capture cProfile function stats and "
                              "tracemalloc per-phase allocation peaks (slow)")
FLAG_SCHEMA.add_argument("--cache-dir", metavar="DIR",
                         help="content-addressed trace cache "
                              "(see docs/BENCHMARKS.md)")
FLAG_SCHEMA.add_argument("--csv", help="write the results to this CSV path")
FLAG_SCHEMA.add_argument("--telemetry", metavar="DIR", help="instrument the "
                         "run and write a run artifact here")
FLAG_SCHEMA.add_argument("--hostprof", metavar="DIR",
                         help="profile host wall time and write a hostprof "
                              "artifact here (see docs/PROFILING.md)")
# main exports the choice through HOTPATH_ENV so --jobs worker processes
# inherit it (docs/HOTPATH.md).
FLAG_SCHEMA.add_argument("--hotpath", choices=list(HOTPATH_MODES),
                         help="simulator inner loop: columnar batch math "
                              "(default) or the scalar reference event loop "
                              "(results are bit-identical)")

#: Value-object field -> the flag that sets it, for error messages.
_FIELD_FLAGS = {f.field: f.option for f in FLAG_SCHEMA.values() if f.field}


def _add_flags(p: argparse.ArgumentParser, **defaults: Any) -> None:
    """Give subcommand ``p`` the schema flags named by ``defaults``.

    Each value is the flag's default for this subcommand, or a dict of
    ``add_argument`` overrides (``default``, ``nargs``, ...) when the
    subcommand refines the schema entry.
    """
    for dest, value in defaults.items():
        flag = FLAG_SCHEMA[dest]
        refined = value if isinstance(value, dict) else {"default": value}
        p.add_argument(flag.option, **{**flag.kwargs, **refined})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="State-compute replication (NSDI 2025) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("programs", help="list registered packet programs")

    p = sub.add_parser("synthesize", help="synthesize a workload trace")
    _add_flags(p, workload=_TRACE_WORKLOAD, flows=50, packets=5000, seed=0)
    p.add_argument("--bidirectional", action="store_true")
    p.add_argument("--out", required=True, help=".scrt or .pcap output path")

    p = sub.add_parser("run", help="functional SCR run with verification")
    p.add_argument("--trace-file", help="SCRT/pcap trace to replay")
    _add_flags(p, program="port_knocking", cores=4, workload=_TRACE_WORKLOAD,
               flows=30, tenants=1, packets=2000, loss_rate=0.0, seed=0,
               cache_dir=None, telemetry=None, hostprof=None, hotpath=None)

    p = sub.add_parser("mlffr", help="measure MLFFR throughput")
    _add_flags(p, program="ddos", workload="univ_dc", technique="scr", cores=4,
               flows=60, packets=4000, tenants=1, tenant_quota=None,
               cache_dir=None, telemetry=None, trace_sample=0.0,
               hostprof=None, hotpath=None)

    p = sub.add_parser("sweep", help="throughput-vs-cores sweep")
    _add_flags(p, program="ddos", workload="univ_dc",
               techniques=["scr", "shared", "rss", "rss++"],
               cores={"default": [1, 2, 4, 7], "nargs": "+"},
               flows=60, packets=4000, tenants=1, tenant_quota=None, jobs=1,
               cache_dir=None, csv=None, telemetry=None, trace_sample=0.0,
               hostprof=None, hotpath=None)

    p = sub.add_parser("hardware", help="sequencer capacity and resources")
    p.add_argument("--rows", type=int, default=16, help="NetFPGA history rows")

    p = sub.add_parser("reproduce", help="re-measure a paper figure")
    p.add_argument("figure", help='figure id, e.g. "1", "6e", "7", "10a", or "list"')
    _add_flags(p, packets=4000, jobs=1, cache_dir=None, csv=None, hotpath=None)

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
    p.add_argument("--out", default="results/bench", metavar="DIR",
                   help="directory for BENCH_*.json artifacts")
    p.add_argument("--full", action="store_true",
                   help="paper-scale grids instead of the quick suite")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                   help="compare two artifacts/directories instead of running")
    p.add_argument("--markdown", metavar="PATH",
                   help="with --compare: also write the report to PATH")
    _add_flags(p, suite=None, reps=3, jobs=1, cache_dir=None, hostprof=None,
               hotpath=None,
               seed={"default": None,
                     "help": "override the pinned base seed (breaks baseline "
                             "comparability; recorded in the artifact)"})

    p = sub.add_parser(
        "profile",
        help="host wall-clock profile of one scenario (repro.hostprof)",
    )
    _add_flags(p, program="ddos", workload="univ_dc", technique="scr", cores=4,
               packets=2000, seed=7, deep=False, cache_dir=None, hotpath=None)
    p.add_argument("--top", type=int, default=12,
                   help="phase-Pareto rows to print (default 12)")
    p.add_argument("--out", default="results/hostprof", metavar="DIR",
                   help="artifact directory (hostprof.json, profile.folded, "
                        "profile.speedscope.json)")

    p = sub.add_parser(
        "chaos", help="fault-injection matrix: detection, recovery, MLFFR"
    )
    _add_flags(p, seed=7, jobs=1, cache_dir=None, hotpath=None)
    p.add_argument("--out", default="results/chaos", metavar="DIR",
                   help="directory for the BENCH_chaos_recovery.json artifact")
    p.add_argument("--full", action="store_true",
                   help="longer traces (2000/3000 packets) instead of quick")

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
    p.add_argument("--facts-only", action="store_true",
                   help="emit the static state-facts document and skip "
                        "the cost-model scoring")
    p.add_argument("--bench", metavar="BENCH.json",
                   help="take d/c1/c2/t from this artifact's embedded "
                        "table4_params instead of the built-in Table 4")
    _add_flags(p, workload="univ_dc", flows=40, packets=1500, seed=7,
               program={"action": "append", "dest": "programs",
                        "metavar": "NAME",
                        "help": "advise only this program (repeatable; "
                                "default: all registered programs)"},
               cores={"default": [1, 2, 3, 4, 5, 6, 7, 8], "nargs": "+",
                      "help": "core counts to predict; the winner is "
                              "decided at the largest"})
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("validate", help="check a program's SCR safety")
    _add_flags(p, program={"required": True}, workload=_TRACE_WORKLOAD,
               flows=20, packets=1000, seed=0)

    return parser


class _FlagError(Exception):
    """A flag value its value object rejected: one ``error:`` line, exit 2."""


@contextmanager
def _validating() -> Iterator[None]:
    """Build value objects from flags, before any work.  A ``ValueError``
    they raise ends the command as one ``error:`` line naming the flag."""
    try:
        yield
    except ValueError as exc:
        message = str(exc)
        flag = _FIELD_FLAGS.get(message.split(" ", 1)[0])
        raise _FlagError(f"{flag}: {message}" if flag else message) from None


def _executor(args, telemetry=NULL_TELEMETRY, **kwargs):
    """The scenario executor ``--jobs``/``--cache-dir`` describe."""
    from .scenario import ScenarioExecutor

    return ScenarioExecutor(
        jobs=getattr(args, "jobs", 1), cache_dir=args.cache_dir,
        telemetry=telemetry if telemetry.enabled else None, **kwargs,
    )


def _placement_for(args):
    """A PlacementSpec when ``--tenants``/``--tenant-quota`` were given,
    else None (single-tenant scenarios carry no placement config)."""
    from .placement import PlacementSpec

    tenants = getattr(args, "tenants", 1)
    quota = getattr(args, "tenant_quota", None)
    if tenants == 1 and quota is None:
        return None
    return PlacementSpec(num_tenants=tenants, tenant_quota=quota)


def _trace_spec(args, bidirectional) -> TraceSpec:
    """The workload ``--workload/--flows/--packets/--seed`` describe, at its
    synthesized packet sizes."""
    return TraceSpec(
        workload=args.workload, num_flows=args.flows, max_packets=args.packets,
        seed=args.seed, bidirectional=bool(bidirectional), packet_size=None,
    )


def _synthesized(args, bidirectional) -> Trace:
    """The ``_trace_spec`` workload at ``synthesize_trace``'s own default
    timing (the scenario layer's ``build_trace`` uses the evaluation's)."""
    with _validating():
        spec = _trace_spec(args, bidirectional)
    return synthesize_trace(
        TRACE_DISTRIBUTIONS[spec.workload](), spec.num_flows, seed=spec.seed,
        bidirectional=spec.bidirectional, max_packets=spec.max_packets,
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
    trace = _synthesized(args, args.bidirectional)
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

    A nonzero ``--trace-sample RATE`` attaches a span emitter keyed on the
    run's seed, so which packets carry a trace is the same in every
    process; without ``--telemetry`` it is an error, not a silent no-op.
    """
    from .obs import SpanEmitter, SpanSampler

    rate = getattr(args, "trace_sample", 0.0)
    sampler = SpanSampler(getattr(args, "seed", 0), rate) if rate else None
    if not args.telemetry:
        if sampler is not None:
            raise _FlagError("--trace-sample needs --telemetry DIR")
        return NULL_TELEMETRY
    tele = Telemetry()
    if sampler is not None:
        tele.spans = SpanEmitter(tele.tracer, sampler)
    return tele


def _config(args, artifact: str) -> dict:
    """The schema flags ``artifact``'s config records, as parsed."""
    return {dest: getattr(args, dest) for dest, flag in FLAG_SCHEMA.items()
            if artifact in flag.records and hasattr(args, dest)}


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
        command=args.command, config=_config(args, "hostprof"), clock=hp,
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
            config=_config(args, "telemetry"),
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
    from .scenario import StackBuilder, TraceCache

    hp = _hostprof_for(args)
    with _validating():
        spec = _trace_spec(args, make_program(args.program).bidirectional)
        _placement_for(args)  # checks --tenants; run only reports occupancy
        faults = (FaultSpec(seed=args.seed, drop_rate=args.loss_rate)
                  if args.loss_rate else None)
        tele = _telemetry_for(args)
        engine = ScrFunctionalEngine(
            make_program(args.program),
            num_cores=args.cores,
            with_recovery=faults is not None,
            faults=faults,
            tracer=tele.tracer,
        )
        trace = _read_trace_file(args.trace_file) if args.trace_file else None
    cache = TraceCache(args.cache_dir) if args.cache_dir else None
    if trace is None:
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
    from .scenario import Scenario

    hp = _hostprof_for(args)
    with _validating():
        scenario = Scenario.create(
            args.program, args.workload, args.technique, args.cores,
            num_flows=args.flows, max_packets=args.packets,
            placement=_placement_for(args),
        )
        tele = _telemetry_for(args)
        executor = _executor(args, tele, hostprof=hp)
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
    _record_cache_metrics(tele, executor.cache)
    if not _finish_telemetry(tele, args, out, num_cores=args.cores,
                             extra_metrics=_result_metrics([result])):
        return 2
    if not _finish_hostprof(hp, args, out):
        return 2
    return 0


def cmd_sweep(args, out) -> int:
    from .bench.figures import scaling_series
    from .scenario import scenario_grid

    hp = _hostprof_for(args)
    with _validating():
        grid = scenario_grid(
            args.program, args.workload, args.techniques, args.cores,
            num_flows=args.flows, max_packets=args.packets,
            placement=_placement_for(args),
        )
        tele = _telemetry_for(args)
        executor = _executor(args, tele, hostprof=hp)
    results = executor.run(grid)
    print(render_scaling_series(
        scaling_series(results), title=f"{args.program} @ {args.workload} (Mpps)"
    ), file=out)
    if args.csv:
        path = scaling_points_to_csv(results, args.csv)
        print(f"wrote {path}", file=out)
    _record_cache_metrics(tele, executor.cache)
    if not _finish_telemetry(tele, args, out, num_cores=max(args.cores),
                             extra_metrics=_result_metrics(results)):
        return 2
    if not _finish_hostprof(hp, args, out):
        return 2
    return 0


def cmd_hardware(args, out) -> int:
    with _validating():
        fpga = NetFpgaSequencerModel(args.rows)
    tofino = TofinoSequencerModel()
    rows = []
    for name in program_names(stateful_only=True):
        prog = make_program(name)
        rows.append([name, prog.metadata_size, tofino.max_cores(prog)])
    print(render_table(
        ["program", "metadata (B)", "Tofino max cores"], rows,
        title=f"Tofino: {tofino.history_fields} 32-bit history fields",
    ), file=out)
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

    if args.figure == "list":
        for name, preset in FIGURE_PRESETS.items():
            print(f"{name:>4}  {preset.describe()}", file=out)
        return 0
    try:
        preset = FIGURE_PRESETS[args.figure]
    except KeyError:
        print(f"error: unknown figure {args.figure!r}; try 'reproduce list'", file=out)
        return 2
    with _validating():
        grid = preset_scenarios(preset, max_packets=args.packets)
        executor = _executor(args)
    series = scaling_series(executor.run(grid))
    print(render_scaling_series(series, title=f"{preset.describe()} (Mpps)"),
          file=out)
    if args.csv:
        path = series_to_csv(series, args.csv)
        print(f"wrote {path}", file=out)
    return 0


def cmd_inspect(args, out) -> int:
    path = Path(args.dir)
    if path.is_dir() and not (path / "manifest.json").exists():
        contents = "empty" if not any(path.iterdir()) else "no manifest.json"
        print(f"{args.dir!r} is not a telemetry run artifact ({contents}); "
              "produce one with run/mlffr/sweep --telemetry DIR", file=out)
        return 2
    try:
        print(summarize_artifact(args.dir), file=out)
    except (FileNotFoundError, NotADirectoryError):
        print(f"no run artifact at {args.dir!r} "
              "(expected a manifest.json written by --telemetry)", file=out)
        return 2
    except ValueError as exc:  # names the file and field
        print(f"error: malformed run artifact: {exc}", file=out)
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

    try:
        results, extra = compare_paths(*args.compare)
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
        print(f"error: unknown suite(s): {', '.join(unknown)}; "
              f"available: {', '.join(suite_names())}", file=out)
        return 2
    hp = _hostprof_for(args)
    with _validating():
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
    from .scenario import Scenario

    clock = PhaseClock(enabled=True)
    with _validating():
        scenario = Scenario.create(
            args.program, args.workload, args.technique, args.cores,
            max_packets=args.packets, seed=args.seed,
        )
        executor = _executor(args, hostprof=clock)
    deep = None
    if args.deep:
        deep = DeepCapture()
        deep.attach(clock)
        deep.start()
    result = executor.run_one(scenario)
    if deep is not None:
        deep.stop()
    profile = HostProfile.create(
        command="profile",
        config=_config(args, "hostprof"),
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

    with _validating():
        params = ChaosMatrixParams(
            seed=args.seed,
            jobs=args.jobs,
            quick=not args.full,
            cache_dir=args.cache_dir,
        )
    report = run_chaos_matrix(params)
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
    report = validate_program(program, list(_synthesized(args, program.bidirectional)))
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
    out = out if out is not None else sys.stdout
    try:
        return _COMMANDS[args.command](args, out)
    except _FlagError as exc:
        print(f"error: {exc}", file=out)
        return 2
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

"""The columnar (struct-of-arrays) hot path of the performance simulator.

:func:`repro.cpu.simulator.simulate` dispatches here when the ``columnar``
hot path is selected (the default; see :func:`resolve_hotpath`).  The
driver solves the whole run with numpy cumulative arithmetic where the
run is a pure recurrence, and walks plain floats in the scalar loop's
order exactly where it is not — from the first drop on:

* **admission** — the serializing wire and the PCIe descriptor budget are
  max-plus recurrences ``free_j = max(free_{j-1}, now_j) + t_j``, solved
  exactly by :func:`_chain`: a one-pass Lindley estimate guesses the busy
  periods, each is folded with the scalar loop's own adds, and the guess
  is kept only once the folded finishes reproduce it (a self-consistent
  reset set is the scalar walk, step by step); when a backlog exceeds
  its slack window, :func:`_admit` walks the stage from that packet on
  (wire first, then PCIe over the wire-admitted packets), recording each
  drop's backlog;
* **steering** — eligible engines expose ``steer_batch`` over the
  admitted rows (round-robin row math for SCR, which counts steered
  packets; an indirection-table gather for RSS; one exact walk of the
  hybrid's classifier and mice state map, in arrival order);
* **fault drops** — a drop-only fault plan's vectorized mask
  (``FaultPlan.drop_mask``) steals admitted, steered rows before their
  rings: they count in the steer counter but never enqueue;
* **core drain** — per-core FIFO service is the same max-plus recurrence
  over (arrival, service) rows.  SCR's history depth reads the global
  steer counter at service time; it is below ``k-1`` only for the first
  ``k-1`` steered packets, each the first on its core under round robin
  and served at the next arrival, so every depth is known up front.  A
  fault drop is a gap the core's next *valid* packet pays for
  (``gap_charge``), which depends on the pop events: :class:`_Drain`
  chains each core, re-derives the gaps from the pop events and repeats
  until they reproduce themselves.  The chain is exact up to a core's
  first ring overflow; :class:`_Drain` walks the core from there;
* **coupled walk** — ``shared`` and ``rss++`` couple their cores (a key's
  serialization wait and bouncing line, a migrated shard's first touch
  depend on which core served the key last, in call order), so
  :func:`_merged_walk` replaces the per-core drain with one walk over
  all cores in the scalar loop's call order: a heap of each core's next
  pop event, each pop served by the engine's one per-packet term
  function on its live models (``engine.coupled_walk``);
* **commit** — counters, the L2 model, and engine steer state are updated
  once, in batch, in the exact scalar accumulation order:
  ``engine.service_batch`` evaluates the engine's term function (the one
  ``service_ns`` charges) on the row columns the drain solved (L2
  outcome, depth, gap), or the coupled walk commits the terms it
  recorded, and both charge each core through
  ``CoreCounters.charge_batch`` (``BaseEngine.charge_rows``);
* **records** — under telemetry, :func:`record_committed` stages the run's
  span-sampled records (drops included) as column batches over the
  committed columns and counts the rest (the retention contract in
  :mod:`repro.telemetry.events`); the tracer turns only the batches it
  retains into events, in the order it gives the scalar loop's.  Fault
  drops and the recovery they cost are emitted in full, in the loop's
  order.

Every float is added in the same order as the scalar reference
(``np.add.accumulate`` is sequential left-to-right), so the result is
**bit-identical** to the event loop — the parity tests and the scalar
oracle (``--hotpath scalar``) pin this.  Only a fault plan with a fault
kind other than drops, or the hybrid under fault drops or with
``count_wire_overhead``, sends a run to the event loop.  See
docs/HOTPATH.md.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import (TYPE_CHECKING, Any, Callable, Iterator, List,
                    Optional, Tuple)

import numpy as np

from ..nic.nic import (
    ETHERNET_OVERHEAD_BYTES,
    MIN_FRAME_BYTES,
    PCIE_DESCRIPTOR_BYTES,
    WIRE_SLACK_FRAMES,
)
from ..telemetry.events import (
    EV_FAULT_DROP,
    EV_PCIE_DROP,
    EV_RING_DROP,
    EV_SERVICE,
    EV_WIRE_DROP,
    RecordBatch,
)
from ..telemetry.metrics import Histogram

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..faults.inject import SimFaults
    from ..hostprof.clock import PhaseClock
    from ..obs.spans import SpanEmitter
    from ..telemetry.events import EventTracer
    from .simulator import PerfEngine, PerfTrace, SimResult

__all__ = [
    "HOTPATH_ENV",
    "HOTPATH_MODES",
    "resolve_hotpath",
    "use_hotpath",
    "l2_spill_rows",
    "ColumnarRun",
    "simulate_columnar",
    "record_committed",
]

#: Environment variable selecting the hot path (``scalar`` | ``columnar``).
#: The CLI ``--hotpath`` flag sets it so ``--jobs N`` workers inherit it.
HOTPATH_ENV = "REPRO_HOTPATH"

HOTPATH_MODES = ("scalar", "columnar")


def resolve_hotpath(explicit: Optional[str] = None) -> str:
    """The active hot-path mode: ``explicit`` arg > env var > columnar."""
    mode = explicit or os.environ.get(HOTPATH_ENV) or "columnar"
    if mode not in HOTPATH_MODES:
        raise ValueError(
            f"unknown hotpath {mode!r}; expected one of {', '.join(HOTPATH_MODES)}"
        )
    return mode


@contextmanager
def use_hotpath(mode: str) -> Iterator[None]:
    """Temporarily pin the hot-path mode (process-wide, via the env var)."""
    if mode not in HOTPATH_MODES:
        raise ValueError(
            f"unknown hotpath {mode!r}; expected one of {', '.join(HOTPATH_MODES)}"
        )
    previous = os.environ.get(HOTPATH_ENV)
    os.environ[HOTPATH_ENV] = mode
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(HOTPATH_ENV, None)
        else:
            os.environ[HOTPATH_ENV] = previous


# -- exact max-plus chain solver ------------------------------------------------


def _chain_scalar(arrivals: np.ndarray, services: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Reference python loop for ``b_j = max(b_{j-1}, a_j) + s_j``."""
    n = len(arrivals)
    start = np.empty(n, dtype=np.float64)
    finish = np.empty(n, dtype=np.float64)
    a = arrivals.tolist()
    s = services.tolist()
    busy = 0.0
    for j in range(n):
        st = busy if busy > a[j] else a[j]
        busy = st + s[j]
        start[j] = st
        finish[j] = busy
    return start, finish


def _chain(arrivals: np.ndarray, services: np.ndarray,
           max_rounds: int = 64) -> Tuple[np.ndarray, np.ndarray]:
    """Solve ``b_j = max(b_{j-1}, a_j) + s_j`` (``b_{-1} = 0``) exactly.

    A packet *resets* (starts a fresh busy period) when it arrives at or
    after its predecessor's finish.  The loop hypothesizes the reset set,
    folds every busy period with a sequential ``np.add.accumulate`` (the
    scalar loop's own left-to-right adds), re-derives the resets from
    those finishes (``finish[j-1] <= a_j``) and stops when they equal the
    hypothesis.  A reset set that reproduces itself is exact: by
    induction over ``j``, each fold step is the scalar step
    ``max(b_{j-1}, a_j) + s_j`` on the same floats, so the result is
    bit-identical to :func:`_chain_scalar`.

    The first hypothesis is Lindley's: with ``S`` the running sum of the
    services and ``lead = a - (S - s)``, packet ``j`` resets where
    ``lead_j`` reaches the running maximum of ``lead`` before it.  Its
    global sum rounds differently from the per-period folds, so it is a
    guess only and never reaches an output; it can misjudge only where a
    finish and an arrival lie within rounding of each other, and the next
    round corrects that.  A round fixes at least the first wrong reset
    (the re-derived ``reset_j`` depends only on the hypothesis before
    ``j``), so the loop always converges; ``max_rounds`` only bounds it,
    and past the cap the exact scalar walk answers.
    """
    n = len(arrivals)
    if n == 0:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty
    base = arrivals + services
    lead = arrivals - (np.cumsum(services) - services)
    reset = np.concatenate(([True], lead[1:] >= np.maximum.accumulate(lead)[:-1]))
    for _ in range(max_rounds):
        finish = base.copy()
        seg_start = np.flatnonzero(reset)
        seg_end = np.append(seg_start[1:], n)
        long_segs = seg_end - seg_start > 1
        for s0, s1 in zip(seg_start[long_segs].tolist(), seg_end[long_segs].tolist()):
            tmp = services[s0:s1].copy()
            tmp[0] = base[s0]
            np.add.accumulate(tmp, out=tmp)
            finish[s0:s1] = tmp
        derived = np.concatenate(([True], finish[:-1] <= arrivals[1:]))
        if np.array_equal(derived, reset):
            prev = np.concatenate((np.zeros(1), finish[:-1]))
            return np.where(reset, arrivals, prev), finish
        reset = derived
    return _chain_scalar(arrivals, services)


# -- vectorized L2 model --------------------------------------------------------


def l2_spill_rows(
    engine: "PerfEngine",
    trace: "PerfTrace",
    rows: np.ndarray,
    cores: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched :meth:`~repro.cpu.cache.L2Model.access` over ``rows`` on
    ``engine.l2``, charging nothing.

    ``rows``/``cores`` list packets in service order (per-core order is
    what matters — cores never share L2 state).  Returns per-row
    ``(miss_frac, spill_ns, first)`` arrays: zero (False) for packets that
    never touch state (``engine.touches_state``), ``first`` marking each
    key's first touch on its core.  The outcome of a row depends only on
    the rows before it on its core, so it holds for any prefix of each
    core's rows.  Assumes the model was just reset — the hot path always
    runs right after ``engine.reset()``.
    """
    l2 = engine.l2
    key_ids = trace.key_ids[rows]
    touches = engine.touches_state(trace, rows)
    miss_frac = np.zeros(len(rows), dtype=np.float64)
    spill = np.zeros(len(rows), dtype=np.float64)
    first = np.zeros(len(rows), dtype=bool)
    for core in range(engine.num_cores):
        sel = np.flatnonzero((cores == core) & touches)
        if len(sel) == 0:
            continue
        miss_frac[sel], first[sel] = _first_touches(key_ids[sel],
                                                    l2.capacity_entries)
        spill[sel] = miss_frac[sel] * l2.spill_ns
    return miss_frac, spill, first


def _first_touches(key_ids: np.ndarray,
                   capacity: int) -> Tuple[np.ndarray, np.ndarray]:
    """One core's L2 outcome over the keys it touches, in service order:
    each access's miss fraction and whether it is the key's first touch."""
    _, first_idx = np.unique(key_ids, return_index=True)
    new = np.zeros(len(key_ids), dtype=bool)
    new[first_idx] = True
    resident = np.cumsum(new)
    excess = resident - capacity
    frac = np.where(
        new, 1.0,
        np.where(excess > 0, excess / np.maximum(resident, 1), 0.0),
    )
    return frac, new


def _install_l2(engine: "PerfEngine", trace: "PerfTrace", rows: np.ndarray,
                cores: np.ndarray, first: np.ndarray) -> None:
    """Make the keys of the served ``rows`` resident on their cores, as
    touching each once would: their first touches name every such key."""
    table = trace.key_table
    key_ids = trace.key_ids[rows]
    for core in range(engine.num_cores):
        kids = key_ids[first & (cores == core)].tolist()
        if kids:
            engine.l2.install(core, [table[i] for i in kids])


# -- the columnar driver --------------------------------------------------------

#: A row's fate in a committed run (:attr:`ColumnarRun.fate`): enqueued on
#: its core's ring, dropped by the wire, PCIe or a full ring, or stolen by
#: the fault plan after it was steered (a fault drop).
ENQUEUED, WIRE_DROP, PCIE_DROP, RING_DROP, FAULT_DROP = 0, 1, 2, 3, 4


@dataclass(frozen=True)
class ColumnarRun:
    """A committed columnar run: its result plus the per-row columns
    (indexed by trace row) that the telemetry post-pass reads."""

    result: "SimResult"
    arrivals: np.ndarray
    #: :data:`ENQUEUED` or the stage that dropped the row.
    fate: np.ndarray
    #: the wire or PCIe backlog (ns) that dropped a row; 0 elsewhere.
    backlog: np.ndarray
    #: the core each steered row went to (-1: dropped before steering).
    cores: np.ndarray
    #: ring length after an enqueue, or of the full ring that dropped it.
    depth: np.ndarray
    #: packets steered before each arrival; entry ``n`` counts them all.
    steered_by: np.ndarray
    starts: np.ndarray
    #: arrival index whose drain popped each row (``n``: the final drain).
    pop_event: np.ndarray
    popped: np.ndarray
    #: each popped row's service time (0 elsewhere).
    services: np.ndarray
    #: each popped row's history depth and the fault gap its service
    #: charged (0: none).
    history: np.ndarray
    gaps: np.ndarray
    #: a coupled engine's walk (``engine.coupled_walk``): the terms of
    #: each served row, in call order, for its records; None otherwise.
    walk: Any = None


def simulate_columnar(
    perf_trace: "PerfTrace",
    rate_pps: float,
    engine: "PerfEngine",
    line_rate_gbps: float,
    ring_capacity: int,
    burst_size: int,
    grace_fraction: float,
    grace_min_ns: float,
    pcie_rate_gbps: float,
    collect_latency: bool,
    sim_faults: Optional["SimFaults"],
    hostprof: "PhaseClock",
) -> Optional[ColumnarRun]:
    """One fixed-rate run on the columnar hot path, or ``None`` to fall
    back to the scalar event loop.

    The fallback triggers, and the only ones:

    * a fault plan (``sim_faults``, the run's injector) with any fault
      kind but drops between admission and the ring: pop drops,
      reordering, duplicates, history truncation, core stalls and kills;
    * an engine that is not ``columnar_eligible``: a hybrid with
      ``count_wire_overhead=True``;
    * a plan's drops on an engine that cannot take them
      (``columnar_eligible(fault_drops=True)``): the hybrid.

    Drops are not a trigger: wire, PCIe and ring drops are replayed
    exactly, and so are a drop-only plan's fault drops on every other
    engine, SCR's gap recovery included.  Coupled cores are not one
    either: ``shared`` and ``rss++`` replay as one merged walk.
    Telemetry is not one either: the caller emits a committed run's
    records with :func:`record_committed`.
    """
    if sim_faults is not None and not sim_faults.plan.drops_only:
        return None
    eligible = getattr(engine, "columnar_eligible", None)
    if not callable(eligible) or not eligible(
            fault_drops=sim_faults is not None):
        return None

    hp_on = hostprof.enabled
    if hp_on:
        hostprof.push("sim.columnar")
    try:
        return _run(perf_trace, rate_pps, engine, line_rate_gbps,
                    ring_capacity, burst_size, grace_fraction, grace_min_ns,
                    pcie_rate_gbps, collect_latency, sim_faults)
    finally:
        if hp_on:
            hostprof.pop()


def record_committed(
    run: ColumnarRun,
    trace: "PerfTrace",
    engine: "PerfEngine",
    tracer: "EventTracer",
    spans: "SpanEmitter",
    sampled: np.ndarray,
) -> None:
    """Stage a committed run's records as a post-pass over its columns.

    The same records the scalar loop emits as it goes: ``span.*``, the
    service records and the drops with their cause for the span-
    ``sampled`` rows, counts for every other row, plus the engine's own
    records (``engine.record_committed``).  They are staged as column
    batches (:class:`~repro.telemetry.events.RecordBatch`), one per kind,
    which become events only if the tracer retains them.  The fault
    drops and the gap recovery they cause are retained in full, as the
    loop emits them (:func:`_record_faults`).
    """
    record = getattr(engine, "record_committed", None)
    if record is not None:
        record(trace, run, sampled)
    arrivals, cores = run.arrivals, run.cores
    fate = run.fate[sampled]
    popped = sampled[run.popped[sampled]]
    if len(sampled):
        spans.emit_columns("nic_arrival", sampled, arrivals[sampled],
                           wire_len=trace.wire_lens[sampled])
        stolen = sampled[fate == FAULT_DROP]
        spans.emit_columns("fault_drop", stolen, arrivals[stolen],
                           core=cores[stolen])
        enqueued = sampled[fate == ENQUEUED]
        spans.emit_columns("ring_enqueue", enqueued, arrivals[enqueued],
                           core=cores[enqueued], depth=run.depth[enqueued])
        spans.emit_columns("core_pop", popped, run.starts[popped],
                           core=cores[popped])
    if not tracer.enabled:
        return
    _record_faults(run, engine, tracer)
    result = run.result
    tracer.count(EV_SERVICE, result.processed - len(popped))
    tracer.stage_columns(RecordBatch(
        EV_SERVICE, popped, run.starts[popped], cores[popped],
        run.services[popped], (("index", popped),)))
    # Each drop with its cause's field; a ring drop also names its core.
    for kind, cause, total, name, column in (
            (EV_WIRE_DROP, WIRE_DROP, result.wire_dropped, "backlog_ns",
             run.backlog),
            (EV_PCIE_DROP, PCIE_DROP, result.pcie_dropped, "backlog_ns",
             run.backlog),
            (EV_RING_DROP, RING_DROP, result.ring_dropped, "depth",
             run.depth)):
        rows = sampled[fate == cause]
        tracer.count(kind, total - len(rows))
        tracer.stage_columns(RecordBatch(
            kind, rows, arrivals[rows],
            cores[rows] if cause == RING_DROP else None,
            fields=(("index", rows), (name, column[rows]))))


def _record_faults(run: ColumnarRun, engine: "PerfEngine",
                   tracer: "EventTracer") -> None:
    """Emit ``fault.drop`` for every stolen row and each charged gap's
    recovery records (``engine.record_gap``) in the scalar loop's order:
    by loop step; within a step, the drain before the arrival (by core,
    then FIFO position) and then the arrival's own drop."""
    stolen = np.flatnonzero(run.fate == FAULT_DROP)
    charged = np.flatnonzero(run.gaps)
    if not len(stolen) and not len(charged):
        return
    rows = np.concatenate((charged, stolen))
    late = np.arange(len(rows)) >= len(charged)
    step = np.concatenate((run.pop_event[charged], stolen))
    order = np.lexsort((rows, run.cores[rows], late, step))
    rows, late = rows[order], late[order]
    for row, is_drop, ts, core, start, gap, h in zip(
            rows.tolist(), late.tolist(), run.arrivals[rows].tolist(),
            run.cores[rows].tolist(), run.starts[rows].tolist(),
            run.gaps[rows].tolist(), run.history[rows].tolist()):
        if is_drop:
            tracer.emit(EV_FAULT_DROP, ts_ns=ts, core=core, index=row)
        else:
            engine.record_gap(engine.gap_charge(gap, h), core, start)


def _run(
    trace: "PerfTrace",
    rate_pps: float,
    engine: "PerfEngine",
    line_rate_gbps: float,
    ring_capacity: int,
    burst_size: int,
    grace_fraction: float,
    grace_min_ns: float,
    pcie_rate_gbps: float,
    collect_latency: bool,
    sf: Optional["SimFaults"],
) -> ColumnarRun:
    from .simulator import SimResult, fault_stats, placement_stats

    n = len(trace)
    k = engine.num_cores
    interval = 1e9 / rate_pps
    line_rate_bps = line_rate_gbps * 1e9
    pcie_rate_bps = pcie_rate_gbps * 1e9

    #: arrival timestamps: fixed spacing, bursts share a slot (the exact
    #: integer-then-float arithmetic of the scalar loop).
    slot = (np.arange(n, dtype=np.int64) // burst_size) * burst_size
    now = slot.astype(np.float64) * interval

    # Admission: the wire, then the host interconnect (DMA payload +
    # descriptor + completion traffic) for the packets the wire admitted.
    wire_len = engine.wire_len_batch(trace)
    frame = np.maximum(wire_len, MIN_FRAME_BYTES) + ETHERNET_OVERHEAD_BYTES
    wt = (frame * 8) / line_rate_bps * 1e9
    dma_len = engine.dma_len_batch(trace)
    dt = ((dma_len + PCIE_DESCRIPTOR_BYTES) * 8) / pcie_rate_bps * 1e9
    fate = np.full(n, WIRE_DROP, dtype=np.int8)
    backlog = np.zeros(n, dtype=np.float64)
    rows = _admit(now, wt, np.arange(n, dtype=np.int64), backlog)
    fate[rows] = PCIE_DROP
    rows = _admit(now, dt, rows, backlog)
    fate[rows] = ENQUEUED
    steered_by = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(fate == ENQUEUED, out=steered_by[1:])
    steered = len(rows)

    # Steering counts steered packets (SCR's round robin), so only the
    # admitted rows are steered; the fault plan then steals some of them
    # on the way to their rings.
    cores = np.full(n, -1, dtype=np.int64)
    cores[rows] = engine.steer_batch(trace, rows)
    stolen = rows[:0]
    if sf is not None:
        lost = sf.drop_rows(rows, n)
        stolen = rows[lost]
        fate[stolen] = FAULT_DROP
        rows = rows[~lost]
    row_cores = cores[rows]

    starts = np.zeros(n, dtype=np.float64)
    finishes = np.zeros(n, dtype=np.float64)
    pop_event = np.full(n, n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    stream_end = n * interval
    horizon = stream_end + max(grace_min_ns, grace_fraction * stream_end)
    cols = _Columns(n)
    walk = None
    gaps_on = False
    if getattr(engine, "couples_cores", False):
        # Coupled cores (shared keys, migrated shards): one walk over all
        # cores in the loop's call order, serving each pop as it comes.
        walk = engine.coupled_walk(trace)
        dropped = _merged_walk(now, rows, row_cores, k, ring_capacity,
                               horizon, walk.serve, starts, finishes,
                               pop_event, depth, cols.services)
        fate[dropped] = RING_DROP
    else:
        # Service times as if no ring overflowed and no gap were charged: the
        # per-core first-touch + spill L2 outcome (the service-order
        # restriction of each core equals its FIFO order) and the history
        # depth.  SCR's depth reads the steer counter at service time,
        # ``min(steered_by[m] - 1, cap)``; it is below ``cap`` only for the
        # first ``cap <= k-1`` steered packets, which round robin sends to
        # distinct cores, each the first packet there and so served at the
        # next arrival (``m = j + 1``): its depth is its steered rank.
        cols.miss_frac[rows], cols.spill[rows], cols.first[rows] = l2_spill_rows(
            engine, trace, rows, row_cores)
        cols.history[rows] = np.minimum(steered_by[rows], engine.history_cap())
        cols.services[rows] = engine.service_rows(
            trace, rows, cols.miss_frac[rows], cols.spill[rows],
            cols.history[rows])

        # Per-core FIFO drain: the max-plus recurrence per core.  Packet j
        # leaves its ring at the first arrival i > j with now_i >= start_j
        # (every arrival drains all cores first), or at the final grace drain
        # (m = n).  Ring length after each enqueue: FIFO position minus the
        # core's earlier packets popped by this arrival.
        gaps_on = getattr(engine, "charges_fault_gaps", False) and len(stolen) > 0
        drain = _Drain(trace, engine, now, ring_capacity, cols)
        order = rows[np.argsort(row_cores, kind="stable")]
        boundaries = np.flatnonzero(np.diff(cores[order])) + 1
        for rows_c in np.split(order, boundaries) if len(order) else ():
            drops = (stolen[cores[stolen] == cores[rows_c[0]]] if gaps_on
                     else stolen[:0])
            s, f, m, d, dropped = drain.core(rows_c, drops)
            fate[rows_c[dropped]] = RING_DROP
            starts[rows_c] = s
            finishes[rows_c] = f
            pop_event[rows_c] = m
            depth[rows_c] = d

    enqueued = fate == ENQUEUED
    popped = enqueued & (starts <= horizon)
    processed = int(np.count_nonzero(popped))
    unfinished = int(np.count_nonzero(enqueued)) - processed
    cols.gaps[~popped] = 0

    # Commit, in the scalar loop's pop order: by drain event, then core
    # (drained 0..k-1), then FIFO position (== arrival index on a core).
    engine.commit_steer_batch(steered)
    pop_rows = np.flatnonzero(popped)
    pop_rows = pop_rows[np.lexsort(
        (pop_rows, cores[pop_rows], pop_event[pop_rows])
    )]
    pop_cores = cores[pop_rows]
    if walk is not None:
        walk.commit(pop_rows, pop_cores)
        committed = cols.services[pop_rows]
    else:
        committed = engine.service_batch(
            trace, pop_rows, pop_cores, cols.miss_frac[pop_rows],
            cols.spill[pop_rows], cols.history[pop_rows],
            cols.gaps[pop_rows] if gaps_on else None)
        _install_l2(engine, trace, pop_rows, pop_cores, cols.first[pop_rows])
    services = np.zeros(n, dtype=np.float64)
    services[pop_rows] = committed

    per_core_packets = np.bincount(pop_cores, minlength=k).tolist()
    last_finish = float(np.max(finishes[pop_rows])) if processed else 0.0
    duration = max(last_finish, stream_end)

    latency_samples: Optional[List[float]] = None
    latency_hist: Optional[Histogram] = None
    if collect_latency:
        latency_hist = Histogram("latency_ns")
        samples = (starts[pop_rows] + committed) - now[pop_rows]
        latency_samples = samples.tolist()
        latency_hist.observe_many(samples)

    result = SimResult(
        offered=n,
        processed=processed,
        wire_dropped=int(np.count_nonzero(fate == WIRE_DROP)),
        ring_dropped=int(np.count_nonzero(fate == RING_DROP)),
        unfinished=unfinished,
        duration_ns=duration,
        rate_pps=rate_pps,
        counters=engine.counters,
        pcie_dropped=int(np.count_nonzero(fate == PCIE_DROP)),
        per_core_packets=per_core_packets,
        latency_samples_ns=latency_samples,
        latency_histogram=latency_hist,
        fault_stats=fault_stats(sf, engine),
        placement_stats=placement_stats(engine),
    )
    return ColumnarRun(result=result, arrivals=now, fate=fate,
                       backlog=backlog, cores=cores, depth=depth,
                       steered_by=steered_by, starts=starts,
                       pop_event=pop_event, popped=popped, services=services,
                       history=cols.history, gaps=cols.gaps, walk=walk)


def _merged_walk(now: np.ndarray, rows: np.ndarray, row_cores: np.ndarray,
                 k: int, ring_capacity: int, horizon: float,
                 serve: Callable[[int, int, int, float], float],
                 starts: np.ndarray, finishes: np.ndarray,
                 pop_event: np.ndarray, depth: np.ndarray,
                 services: np.ndarray) -> np.ndarray:
    """Serve the queued ``rows`` (arrival order, on ``row_cores``) of an
    engine whose cores are coupled, in the scalar loop's call order,
    filling the row columns in place; returns the rows a full ring
    dropped.

    A heap holds each core's next pop event ``(m, core)``: its head
    packet ``j`` starts at ``max(busy, now_j)`` and leaves at the first
    arrival ``m > j`` with ``now_m >= start`` (``m = n``: the final drain,
    which pops only starts within the horizon, and leaves the rest of
    the core's packets unfinished).  Events pop by arrival, then core —
    the loop drains every core before each arrival — and each calls
    ``serve(core, row, m, start)``, which runs the engine's models in that
    order and returns the service.  A core's head is the first of its
    packets that found room: the ``e``-th packet it enqueues does exactly
    when the one ``capacity`` places ahead of it popped before its
    arrival, so the walk never visits an arrival on its own.  A row left
    unserved keeps an infinite start.
    """
    arrivals = array("d", now.tobytes())
    n = len(arrivals)
    order = np.argsort(row_cores, kind="stable")
    cuts = np.searchsorted(row_cores[order], np.arange(1, k)).tolist()
    queues = [array("q", q.tobytes())
              for q in np.split(rows[order].astype(np.int64), cuts)]
    #: each core's next packet, and the pop event of each it enqueued.
    nexts = [0] * k
    pops = [array("q") for _ in range(k)]
    heap: List[Tuple[int, int, float, int]] = []
    # Raw doubles: a boxed float per packet would outweigh the trace.
    start_of = array("d", [np.inf]) * n
    service_of = array("d", [0.0]) * n
    dropped: List[int] = []

    def enqueued(c: int) -> int:
        """Core ``c``'s next packet that found room (its full-ring drops
        before it recorded), or -1 when none is left."""
        queue, mine, p = queues[c], pops[c], nexts[c]
        while p < len(queue):
            e = len(mine)
            if e >= ring_capacity:
                gate = mine[e - ring_capacity] if ring_capacity else n + 1
                if queue[p] < gate:
                    stop = bisect_left(queue, gate, p)
                    dropped.extend(queue[p:stop])
                    p = stop
                    continue
            nexts[c] = p + 1
            return queue[p]
        nexts[c] = p
        return -1

    def head(c: int, busy: float) -> None:
        """Queue core ``c``'s next pop event, if it has a packet left."""
        j = enqueued(c)
        if j < 0:
            return
        arrival = arrivals[j]
        if busy > arrival:
            heappush(heap, (bisect_left(arrivals, busy, j + 1), c, busy, j))
        else:
            heappush(heap, (j + 1, c, arrival, j))

    for c in range(k):
        head(c, 0.0)
    while heap:
        m, c, start, j = heappop(heap)
        mine = pops[c]
        if start > horizon:
            # Unfinished: this packet and every later one that found room.
            mine.append(n)
            while enqueued(c) >= 0:
                mine.append(n)
            continue
        service = serve(c, j, m, start)
        start_of[j] = start
        service_of[j] = service
        mine.append(m)
        busy = start + service
        # The common case inline: the core's next packet found room.
        queue, p = queues[c], nexts[c]
        if p == len(queue):
            continue
        e = len(mine)
        if e >= ring_capacity and queue[p] < mine[e - ring_capacity]:
            head(c, busy)
            continue
        nexts[c] = p + 1
        j = queue[p]
        arrival = arrivals[j]
        if busy > arrival:
            heappush(heap, (bisect_left(arrivals, busy, j + 1), c, busy, j))
        else:
            heappush(heap, (j + 1, c, arrival, j))

    lost = np.asarray(sorted(dropped), dtype=np.int64)
    kept = np.ones(len(rows), dtype=bool)
    kept[np.searchsorted(rows, lost)] = False
    queued = rows[kept]
    starts[rows] = np.frombuffer(start_of)[rows]
    services[rows] = np.frombuffer(service_of)[rows]
    finishes[rows] = starts[rows] + services[rows]
    # Ring length after each enqueue: its ordinal on the core minus the
    # core's packets popped by its arrival (FIFO pops are in order); a
    # full ring holds its capacity.
    for c in range(k):
        mine = queued[row_cores[kept] == c]
        events = np.frombuffer(pops[c], dtype=np.int64)
        pop_event[mine] = events
        depth[mine] = (np.arange(1, len(mine) + 1)
                       - np.searchsorted(events, mine, side="right"))
    depth[lost] = ring_capacity
    return lost


def _admit(now: np.ndarray, cost: np.ndarray, rows: np.ndarray,
           backlog: np.ndarray) -> np.ndarray:
    """One serializing admission stage (the wire or PCIe) over ``rows``,
    the packets that reach it in arrival order: the rows it admits.

    ``free_j = max(free_{j-1}, now_j) + cost_j`` over admitted packets; a
    packet is dropped when the backlog ``free - now`` it meets exceeds
    the slack window (:data:`WIRE_SLACK_FRAMES` of the first packet's
    cost).  :func:`_chain` solves the stage exactly up to its first drop;
    from there a walk over plain floats, in the scalar loop's order,
    decides each packet and writes each dropped row's ``backlog``.
    """
    if not len(rows):
        return rows
    slack = float(cost[rows[0]]) * WIRE_SLACK_FRAMES
    arrivals = now[rows]
    costs = cost[rows]
    _, free = _chain(arrivals, costs)
    over = np.flatnonzero(free[:-1] - arrivals[1:] > slack)
    if not len(over):
        return rows
    first = int(over[0]) + 1
    busy = float(free[first - 1])
    dropped: List[int] = []
    lags: List[float] = []
    for j, (arrival, t) in enumerate(
            zip(arrivals[first:].tolist(), costs[first:].tolist()), first):
        lag = busy - arrival
        if lag > slack:
            dropped.append(j)
            lags.append(lag)
            continue
        busy = (busy if busy > arrival else arrival) + t
    backlog[rows[dropped]] = lags
    return np.delete(rows, dropped)


class _Columns:
    """The per-row service inputs of a run, indexed by trace row: each
    row's L2 outcome (miss fraction, spill, first touch), history depth,
    fault gap and service time.  The first pass fills them for every
    queued row; each core's drain corrects what its pop events (gaps)
    and ring overflows (L2) change; the commit reads them for the served
    rows."""

    def __init__(self, n: int) -> None:
        self.miss_frac = np.zeros(n, dtype=np.float64)
        self.spill = np.zeros(n, dtype=np.float64)
        self.first = np.zeros(n, dtype=bool)
        self.history = np.zeros(n, dtype=np.int64)
        self.gaps = np.zeros(n, dtype=np.int64)
        self.services = np.zeros(n, dtype=np.float64)


class _Drain:
    """Each core's exact FIFO drain, solved from its queued rows.

    A fault drop on a core is a gap that the first *valid* packet popped
    after it pays for, so a packet's service depends on its own pop
    event and its predecessors'.  :meth:`core` chains the core with the
    gaps guessed so far (none at first), re-derives them from the new pop
    events, and stops when they reproduce themselves.  A row's derived
    gap depends only on the rows before it, so each round fixes at least
    the first wrong one, and a self-consistent assignment is the scalar
    walk, step by step.

    The chain is exact up to the core's first ring overflow: nothing
    earlier depends on a later packet.  From there :meth:`_walk` follows
    the scalar loop packet by packet over plain floats: a FIFO of pop
    events (a packet leaves at the first arrival ``>= start``), the
    ring-full check at each arrival, L2 first touches among *enqueued*
    packets that touch state only (``engine.touches_state``; a dropped
    packet never does), and the gaps.  It also answers a core whose gaps
    do not settle within :attr:`max_rounds`.
    """

    #: Rounds before the walk answers instead (a safety net, like
    #: :func:`_chain`'s: a round fixes at least one row).
    max_rounds = 64

    def __init__(self, trace: "PerfTrace", engine: "PerfEngine",
                 now: np.ndarray, ring_capacity: int,
                 cols: _Columns) -> None:
        self.trace = trace
        self.engine = engine
        self.now = now
        self.ring_capacity = ring_capacity
        self.cols = cols
        self._arrivals: Optional[List[float]] = None

    def _pops(self, rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Each row's pop event: ``searchsorted`` is exact because the
        arrival grid is nondecreasing."""
        return np.maximum(np.searchsorted(self.now, starts, side="left"),
                          rows + 1)

    def core(self, rows: np.ndarray, drops: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                        np.ndarray]:
        """Drain one core's queued ``rows`` (arrival order), with the
        arrival indices of the fault drops it gets charged for: each row's
        start, finish, pop event and ring length, and the positions a
        full ring dropped."""
        cols = self.cols
        arrivals = self.now[rows]
        services = cols.services[rows]
        s, f = _chain(arrivals, services)
        m = self._pops(rows, s)
        settled = True
        if len(drops):
            settled = False
            gaps = np.zeros(len(rows), dtype=np.int64)
            valid = self.trace.valid[rows]
            for _ in range(self.max_rounds):
                derived = self._gaps(m, drops, valid)
                changed = np.flatnonzero(derived != gaps)
                if not len(changed):
                    settled = True
                    break
                gaps = derived
                at = rows[changed]
                services[changed] = self.engine.service_rows(
                    self.trace, at, cols.miss_frac[at], cols.spill[at],
                    cols.history[at], gaps[changed])
                # Rows before the first change keep their chain: re-chain
                # the rest from there, with the finish before it folded
                # into its arrival (``max`` picks one float, so exactly).
                p = int(changed[0])
                head = arrivals[p:].copy()
                if p:
                    head[0] = max(f[p - 1], head[0])
                s[p:], f[p:] = _chain(head, services[p:])
                m[p:] = self._pops(rows[p:], s[p:])
            cols.gaps[rows] = gaps
        d = np.arange(1, len(rows) + 1) - np.searchsorted(m, rows,
                                                          side="right")
        over = np.flatnonzero(d > self.ring_capacity)
        if settled and not len(over):
            return s, f, m, d, over
        p = int(over[0]) if settled else 0
        return s, f, m, d, self._walk(rows, p, s, f, m, d, drops)

    @staticmethod
    def _gaps(m: np.ndarray, drops: np.ndarray,
              valid: np.ndarray) -> np.ndarray:
        """The gaps that pop events ``m`` imply: each valid row pays for
        the drops before its pop event that no earlier valid row paid
        for."""
        gaps = np.zeros(len(m), dtype=np.int64)
        seen = np.searchsorted(drops, m[valid], side="left")
        paid = np.zeros_like(seen)
        paid[1:] = seen[:-1]
        gaps[valid] = seen - paid
        return gaps

    def _walk(self, rows: np.ndarray, p: int, s: np.ndarray, f: np.ndarray,
              m: np.ndarray, d: np.ndarray, drops: np.ndarray) -> np.ndarray:
        """Redo positions ``p..`` of one core's ``rows`` in place (start,
        finish, pop event, ring length, and the row columns); returns the
        dropped positions.

        The ring never holds more than its capacity, so the ``e``-th
        packet the core enqueues finds room exactly when the one
        ``capacity`` places ahead of it has popped: every arrival before
        that pop event is dropped at full depth.
        """
        trace, engine, cols = self.trace, self.engine, self.cols
        if self._arrivals is None:
            self._arrivals = self.now.tolist()
        arrivals = self._arrivals
        capacity = self.ring_capacity
        l2 = engine.l2
        entries, spill_ns = l2.capacity_entries, l2.spill_ns
        rest = rows[p:]
        index = rest.tolist()
        count = len(index)
        # Everything before ``p`` was enqueued: its pop events, the finish
        # of the last one, the keys it made resident and the drops its
        # valid packets paid for.
        pops = m[:p].tolist()
        busy = float(f[p - 1]) if p else 0.0
        head = rows[:p][engine.touches_state(trace, rows[:p])]
        resident = set(trace.key_ids[head].tolist())
        paid = int(cols.gaps[rows[:p]].sum())
        stolen = drops.tolist()
        depth = cols.history[rest]
        zeros = np.zeros(count, dtype=np.float64)
        first_touch = engine.service_rows(
            trace, rest, zeros + 1.0, zeros + spill_ns, depth).tolist()
        hit = engine.service_rows(trace, rest, zeros, zeros, depth).tolist()
        depth = depth.tolist()
        keys = trace.key_ids[rest].tolist()
        touches = engine.touches_state(trace, rest).tolist()
        valid = trace.valid[rest].tolist()
        never = len(arrivals)
        out_s: List[float] = []
        out_f: List[float] = []
        charged: List[Tuple[int, int]] = []
        dropped: List[int] = []
        q = 0
        while q < count:
            e = len(pops)
            if e >= capacity:
                gate = pops[e - capacity] if capacity > 0 else never
                if index[q] < gate:
                    stop = bisect_left(index, gate, q)
                    dropped.extend(range(q, stop))
                    q = stop
                    if q == count:
                        break
            i = index[q]
            arrival = arrivals[i]
            start = busy if busy > arrival else arrival
            pop = bisect_left(arrivals, start, i + 1)
            if not touches[q]:
                frac, service = 0.0, hit[q]
            elif keys[q] not in resident:
                resident.add(keys[q])
                frac, service = 1.0, first_touch[q]
            else:
                excess = len(resident) - entries
                if excess > 0:
                    frac = excess / len(resident)
                    service = engine.service_row(
                        trace, i, frac, frac * spill_ns, depth[q])
                else:
                    frac, service = 0.0, hit[q]
            if stolen and valid[q]:
                seen = bisect_left(stolen, pop)
                gap, paid = seen - paid, seen
                if gap:
                    charged.append((i, gap))
                    service = engine.service_row(
                        trace, i, frac, frac * spill_ns, depth[q], gap)
            busy = start + service
            pops.append(pop)
            out_s.append(start)
            out_f.append(busy)
            q += 1
        lost = np.asarray(dropped, dtype=np.int64)
        enqueued = np.ones(count, dtype=bool)
        enqueued[lost] = False
        at = np.flatnonzero(enqueued)
        s[p + at] = out_s
        f[p + at] = out_f
        m[p:] = never
        m[p + at] = pops[p:]
        # Ring length after each enqueue: its ordinal plus one, minus the
        # core's packets popped by its arrival.
        popped_by = np.searchsorted(np.asarray(pops), rest[at], side="right")
        d[p + at] = np.arange(p + 1, p + 1 + len(at)) - popped_by
        d[p + lost] = capacity
        s[p + lost] = 0.0
        f[p + lost] = 0.0
        # The L2 outcome of the rows the core enqueued (the walk touched
        # the same keys in the same order), and the walked rows' gaps.
        kept = np.concatenate((rows[:p], rest[at]))
        kept = kept[engine.touches_state(trace, kept)]
        cols.miss_frac[kept], cols.first[kept] = _first_touches(
            trace.key_ids[kept], entries)
        cols.spill[kept] = cols.miss_frac[kept] * spill_ns
        cols.gaps[rest] = 0
        if charged:
            where, values = zip(*charged)
            cols.gaps[list(where)] = values
        return p + lost

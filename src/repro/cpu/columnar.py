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
* **core drain** — per-core FIFO service is the same max-plus recurrence
  over (arrival, service) rows.  SCR's history depth reads the global
  steer counter at *service* time, so the first ``k-1`` steered packets
  are resolved by an exact scalar prefix walk and every later packet is
  in steady state (``h = k-1``).  The chain is exact up to a core's first
  ring overflow; :class:`_CoreWalker` replays the core from there;
* **commit** — counters, the L2 model, and engine steer state are updated
  once, in batch, through ``engine.service_batch`` /
  ``CoreCounters.charge_batch``, in the exact scalar accumulation order;
* **records** — under telemetry, :func:`record_committed` stages the run's
  span-sampled records (drops included) as column batches over the
  committed columns and counts the rest (the retention contract in
  :mod:`repro.telemetry.events`); the tracer turns only the batches it
  retains into events, in the order it gives the scalar loop's.

Every float is added in the same order as the scalar reference
(``np.add.accumulate`` is sequential left-to-right), so the result is
**bit-identical** to the event loop — the parity tests and the scalar
oracle (``--hotpath scalar``) pin this.  Only a fault plan or an
ineligible engine sends a run to the event loop.  See docs/HOTPATH.md.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

import numpy as np

from ..nic.nic import (
    ETHERNET_OVERHEAD_BYTES,
    MIN_FRAME_BYTES,
    PCIE_DESCRIPTOR_BYTES,
    WIRE_SLACK_FRAMES,
)
from ..telemetry.events import (
    EV_PCIE_DROP,
    EV_RING_DROP,
    EV_SERVICE,
    EV_WIRE_DROP,
    RecordBatch,
)
from ..telemetry.metrics import Histogram

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..faults.plan import FaultPlan
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
    commit: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched :meth:`~repro.cpu.cache.L2Model.access` over ``rows`` on
    ``engine.l2``.

    ``rows``/``cores`` list packets in service order (per-core order is
    what matters — cores never share L2 state).  Returns per-row
    ``(miss_frac, spill_ns)`` arrays, zero for packets that never touch
    state (``engine.touches_state``).  With ``commit=True`` the touched
    keys are also installed into the model's resident sets, completing
    the state the scalar loop would have built.  Assumes the model was
    just reset — the hot path always runs right after ``engine.reset()``.
    """
    l2 = engine.l2
    key_ids = trace.key_ids[rows]
    touches = engine.touches_state(trace, rows)
    miss_frac = np.zeros(len(rows), dtype=np.float64)
    spill = np.zeros(len(rows), dtype=np.float64)
    for core in range(engine.num_cores):
        sel = np.flatnonzero((cores == core) & touches)
        if len(sel) == 0:
            continue
        ids = key_ids[sel]
        uniq, first_idx = np.unique(ids, return_index=True)
        first = np.zeros(len(ids), dtype=bool)
        first[first_idx] = True
        resident = np.cumsum(first)
        excess = resident - l2.capacity_entries
        over = excess > 0
        frac = np.where(
            first, 1.0,
            np.where(over, excess / np.maximum(resident, 1), 0.0),
        )
        miss_frac[sel] = frac
        spill[sel] = frac * l2.spill_ns
        if commit:
            table = trace.key_table
            l2.install(core, (table[int(i)] for i in uniq))
    return miss_frac, spill


# -- the columnar driver --------------------------------------------------------

#: A row's fate in a committed run (:attr:`ColumnarRun.fate`): enqueued on
#: its core's ring, or dropped by the wire, PCIe or a full ring.
ENQUEUED, WIRE_DROP, PCIE_DROP, RING_DROP = 0, 1, 2, 3


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
    faults: Optional["FaultPlan"],
    hostprof: "PhaseClock",
) -> Optional[ColumnarRun]:
    """One fixed-rate run on the columnar hot path, or ``None`` to fall
    back to the scalar event loop.

    The only fallback triggers are a fault plan attached and an engine
    without batched row math (``columnar_eligible``: ``shared``,
    ``rss++``, and a hybrid with ``count_wire_overhead=True``).  Drops
    are not a trigger: wire, PCIe and ring drops are replayed exactly.
    Telemetry is not one either: the caller emits a committed run's
    records with :func:`record_committed`.
    """
    if faults is not None and faults.any_faults:
        return None
    eligible = getattr(engine, "columnar_eligible", None)
    if not callable(eligible) or not eligible():
        return None

    hp_on = hostprof.enabled
    if hp_on:
        hostprof.push("sim.columnar")
    try:
        return _run(perf_trace, rate_pps, engine, line_rate_gbps,
                    ring_capacity, burst_size, grace_fraction, grace_min_ns,
                    pcie_rate_gbps, collect_latency)
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
    which become events only if the tracer retains them.
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
        enqueued = sampled[fate == ENQUEUED]
        spans.emit_columns("ring_enqueue", enqueued, arrivals[enqueued],
                           core=cores[enqueued], depth=run.depth[enqueued])
        spans.emit_columns("core_pop", popped, run.starts[popped],
                           core=cores[popped])
    if not tracer.enabled:
        return
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
) -> ColumnarRun:
    from .simulator import SimResult, placement_stats

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

    # Steering counts steered packets (SCR's round robin), so only the
    # admitted rows are steered.
    cores = np.full(n, -1, dtype=np.int64)
    cores[rows] = engine.steer_batch(trace, rows)
    row_cores = cores[rows]

    # Service times as if no ring overflowed: per-core first-touch + spill
    # L2 outcome (the service-order restriction of each core equals its
    # FIFO order) and history depth.  A core's FIFO drain is exact up to
    # its first overflow; :class:`_CoreWalker` takes over from there.
    miss_frac, spill = l2_spill_rows(engine, trace, rows, row_cores)
    cap = engine.history_cap()
    h = np.full(len(rows), cap, dtype=np.int64)
    if cap > 0:
        _resolve_history_prefix(trace, engine, now, rows, row_cores,
                                miss_frac, spill, h, cap, steered_by)
    svc = np.zeros(n, dtype=np.float64)
    svc[rows] = engine.service_rows(trace, rows, miss_frac, spill, h)

    # Per-core FIFO drain: the max-plus recurrence per core.  Packet j
    # leaves its ring at the first arrival i > j with now_i >= start_j
    # (every arrival drains all cores first), or at the final grace drain
    # (m = n); ``searchsorted`` is exact because the arrival grid is
    # nondecreasing.  Ring length after each enqueue: FIFO position minus
    # the core's earlier packets popped by this arrival.
    starts = np.zeros(n, dtype=np.float64)
    finishes = np.zeros(n, dtype=np.float64)
    pop_event = np.full(n, n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    order = rows[np.argsort(row_cores, kind="stable")]
    boundaries = np.flatnonzero(np.diff(cores[order])) + 1
    walker: Optional[_CoreWalker] = None
    for rows_c in np.split(order, boundaries):
        s, f = _chain(now[rows_c], svc[rows_c])
        m = np.maximum(np.searchsorted(now, s, side="left"), rows_c + 1)
        d = np.arange(1, len(rows_c) + 1) - np.searchsorted(m, rows_c,
                                                            side="right")
        over = np.flatnonzero(d > ring_capacity)
        if len(over):
            if walker is None:
                walker = _CoreWalker(trace, engine, now, steered_by,
                                     ring_capacity)
            dropped = walker.walk(rows_c, int(over[0]), s, f, m, d)
            fate[rows_c[dropped]] = RING_DROP
        starts[rows_c] = s
        finishes[rows_c] = f
        pop_event[rows_c] = m
        depth[rows_c] = d

    enqueued = fate == ENQUEUED
    stream_end = n * interval
    horizon = stream_end + max(grace_min_ns, grace_fraction * stream_end)
    popped = enqueued & (starts <= horizon)
    processed = int(np.count_nonzero(popped))
    unfinished = int(np.count_nonzero(enqueued)) - processed

    # Commit, in the scalar loop's pop order: by drain event, then core
    # (drained 0..k-1), then FIFO position (== arrival index on a core).
    engine.commit_steer_batch(len(rows))
    pop_rows = np.flatnonzero(popped)
    pop_rows = pop_rows[np.lexsort(
        (pop_rows, cores[pop_rows], pop_event[pop_rows])
    )]
    committed = engine.service_batch(
        trace, pop_rows, cores[pop_rows], starts[pop_rows],
        steered_by[pop_event[pop_rows]]
    )
    services = np.zeros(n, dtype=np.float64)
    services[pop_rows] = committed

    per_core_packets = np.bincount(cores[pop_rows], minlength=k).tolist()
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
        fault_stats=None,
        placement_stats=placement_stats(engine),
    )
    return ColumnarRun(result=result, arrivals=now, fate=fate,
                       backlog=backlog, cores=cores, depth=depth,
                       steered_by=steered_by, starts=starts,
                       pop_event=pop_event, popped=popped, services=services)


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


class _CoreWalker:
    """Exact drain of one core's ring from its first overflow on.

    Up to a core's first overflow the vectorized chain is exact: nothing
    earlier on the core depends on a later packet.  From there the walk
    follows the scalar loop packet by packet over plain floats: a FIFO of
    pop events (a packet leaves at the first arrival ``>= start``), the
    ring-full check at each arrival, L2 first touches among *enqueued*
    packets that touch state only (``engine.touches_state``; a dropped
    packet never does), and the history depth read from the steered
    count at the pop event.
    """

    def __init__(self, trace: "PerfTrace", engine: "PerfEngine",
                 now: np.ndarray, steered_by: np.ndarray,
                 ring_capacity: int) -> None:
        self.trace = trace
        self.engine = engine
        self.now = now.tolist()
        self.steered = steered_by
        self.steered_by = steered_by.tolist()
        self.ring_capacity = ring_capacity
        self.cap = engine.history_cap()

    def _service(self, row: int, miss_frac: float, spill_ns: float,
                 h: int) -> float:
        return float(self.engine.service_rows(
            self.trace, np.array([row]), np.array([miss_frac]),
            np.array([spill_ns]), np.array([h]))[0])

    def walk(self, rows: np.ndarray, p: int, s: np.ndarray, f: np.ndarray,
             m: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Redo positions ``p..`` of one core's ``rows`` in place (start,
        finish, pop event, ring length); returns the dropped positions.

        The ring never holds more than its capacity, so the ``e``-th
        packet the core enqueues finds room exactly when the one
        ``capacity`` places ahead of it has popped: every arrival before
        that pop event is dropped at full depth.
        """
        trace, engine = self.trace, self.engine
        arrivals, steered_by = self.now, self.steered_by
        capacity, cap = self.ring_capacity, self.cap
        l2 = engine.l2
        entries, spill_ns = l2.capacity_entries, l2.spill_ns
        rest = rows[p:]
        index = rest.tolist()
        count = len(index)
        # Everything before ``p`` was enqueued: its pop events, the finish
        # of the last one, and the keys it made resident.
        pops = m[:p].tolist()
        busy = float(f[p - 1]) if p else 0.0
        head = rows[:p][engine.touches_state(trace, rows[:p])]
        resident = set(trace.key_ids[head].tolist())
        full_cap = np.full(count, cap, dtype=np.int64)
        zeros = np.zeros(count, dtype=np.float64)
        first_touch = engine.service_rows(
            trace, rest, zeros + 1.0, zeros + spill_ns, full_cap).tolist()
        hit = engine.service_rows(trace, rest, zeros, zeros, full_cap).tolist()
        keys = trace.key_ids[rest].tolist()
        touches = engine.touches_state(trace, rest).tolist()
        never = len(arrivals)
        # Packets before ``steady`` may still have fewer than ``cap``
        # steered packets ahead of them; every later one has h = cap.
        steady = int(np.searchsorted(self.steered[rest], cap))
        out_s: List[float] = []
        out_f: List[float] = []
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
            h = cap
            if q < steady and steered_by[pop] - 1 < cap:
                h = steered_by[pop] - 1
            if not touches[q]:
                service = hit[q]
            elif keys[q] not in resident:
                resident.add(keys[q])
                service = (first_touch[q] if h == cap
                           else self._service(i, 1.0, spill_ns, h))
            else:
                excess = len(resident) - entries
                if excess <= 0 and h == cap:
                    service = hit[q]
                else:
                    frac = excess / len(resident) if excess > 0 else 0.0
                    service = self._service(i, frac, frac * spill_ns, h)
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
        return p + lost


def _resolve_history_prefix(
    trace: "PerfTrace",
    engine: "PerfEngine",
    now: np.ndarray,
    rows: np.ndarray,
    cores: np.ndarray,
    miss_frac: np.ndarray,
    spill: np.ndarray,
    h: np.ndarray,
    cap: int,
    steered_by: np.ndarray,
) -> None:
    """Exact history depths for the first ``cap`` steered packets, in
    place (``h`` and the other columns are aligned with ``rows``).

    SCR's history depth reads the global steer counter at *service*
    time: ``h = min(steered_by[m] - 1, cap)`` for pop event ``m``.  A
    packet whose steered rank is at least ``cap`` is in steady state
    (``h = cap``); each prefix packet's start time depends only on earlier
    prefix packets on its core, so a short scalar walk resolves the rest.
    """
    core_busy = [0.0] * engine.num_cores
    for q in range(min(cap, len(rows))):
        j = int(rows[q])
        core = int(cores[q])
        arrival = float(now[j])
        busy = core_busy[core]
        start = busy if busy > arrival else arrival
        m = max(int(np.searchsorted(now, start, side="left")), j + 1)
        h[q] = min(max(int(steered_by[m]) - 1, 0), cap)
        service = engine.service_rows(
            trace, rows[q:q + 1], miss_frac[q:q + 1], spill[q:q + 1],
            h[q:q + 1])
        core_busy[core] = start + float(service[0])

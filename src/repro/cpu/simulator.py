"""Discrete-event multicore packet-processing simulator.

This is the performance layer's engine: the device under test from §4.1,
reduced to the quantities that determine throughput.  Packets are offered at
a fixed rate (the replayer's TX rate), admitted through a serializing wire,
steered to bounded per-core RX rings, and drained by cores whose per-packet
service time comes from a :class:`PerfEngine` (one per scaling technique in
``repro.parallel``).  Loss — the MLFFR search signal — arises naturally when
rings overflow or the wire saturates.

For speed, traces are preprocessed once into :class:`PerfTrace` — a
struct-of-arrays container (interned key ids, the three Toeplitz hashes,
wire lengths, validity flags as numpy columns); each simulated rate then
only rescales timestamps.  Runs execute on the columnar hot path
(``repro.cpu.columnar``) when possible and on the scalar event loop below
otherwise — the scalar loop is the reference oracle the columnar path must
match bit-for-bit (``--hotpath scalar``; see docs/HOTPATH.md).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..nic.nic import (
    ETHERNET_OVERHEAD_BYTES,
    MIN_FRAME_BYTES,
    PCIE_DESCRIPTOR_BYTES,
    WIRE_SLACK_FRAMES,
)
from ..nic.queues import DEFAULT_DESCRIPTORS
from ..nic.rss import SYMMETRIC_RSS_KEY, toeplitz_hash, toeplitz_hash_batch
from ..programs.base import PacketProgram
from ..telemetry.events import (
    EV_FAULT_DROP,
    EV_FAULT_DUPLICATE,
    EV_FAULT_KILL,
    EV_FAULT_POP_DROP,
    EV_FAULT_REORDER,
    EV_FAULT_STALL,
    EV_PCIE_DROP,
    EV_RING_DROP,
    EV_RUN_SUMMARY,
    EV_SERVICE,
    EV_WIRE_DROP,
    NULL_TRACER,
    EventTracer,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..faults.inject import SimFaults
    from ..faults.plan import FaultPlan
from ..hostprof.clock import NULL_HOSTPROF, PhaseClock
from ..obs.spans import NULL_SPANS, SpanEmitter
from ..telemetry.metrics import Histogram
from ..traffic.trace import Trace
from .counters import SystemCounters

__all__ = ["PerfPacket", "PerfTrace", "PerfEngine", "SimResult", "simulate"]


@dataclass(frozen=True)
class PerfPacket:
    """Precomputed per-packet record used by the performance simulator."""

    index: int
    key: object  # program state key (already normalized where applicable)
    hash_l3: int  # Toeplitz over src+dst IP
    hash_l4: int  # Toeplitz over the 4-tuple
    hash_sym: int  # symmetric-key Toeplitz over the 4-tuple
    wire_len: int
    valid: bool  # does this packet touch program state at all?
    touches_global: bool = False  # does it update globally-shared state?


class PerfTrace:
    """A trace lowered to per-packet *columns* for one program.

    Struct-of-arrays container: ``key_ids`` (int64 indices into the
    ``key_table`` of interned program state keys), the three Toeplitz
    hashes (uint32), ``wire_lens`` (int64), and ``valid`` /
    ``touches_global`` (bool) — what the columnar hot path consumes
    directly.  The legacy row-major view (:attr:`records`, a list of
    :class:`PerfPacket`) is rebuilt lazily for scalar consumers.  The
    columns are read-only; pickling round-trips columns only (the trace
    cache's ``CACHE_SCHEMA`` was bumped for this layout).
    """

    _COLUMN_STATE = (
        "program_name", "name", "key_table", "key_ids",
        "hash_l3", "hash_l4", "hash_sym", "wire_lens",
        "valid", "touches_global",
    )

    def __init__(self, records: Sequence[PerfPacket], program_name: str, name: str):
        records = list(records)
        n = len(records)
        key_table: List[object] = []
        key_index: Dict[object, int] = {}
        key_ids = np.empty(n, dtype=np.int64)
        for i, r in enumerate(records):
            kid = key_index.get(r.key)
            if kid is None:
                kid = len(key_table)
                key_index[r.key] = kid
                key_table.append(r.key)
            key_ids[i] = kid
        self._bind_columns(
            program_name=program_name,
            name=name,
            key_table=key_table,
            key_ids=key_ids,
            hash_l3=np.fromiter((r.hash_l3 for r in records), dtype=np.uint32, count=n),
            hash_l4=np.fromiter((r.hash_l4 for r in records), dtype=np.uint32, count=n),
            hash_sym=np.fromiter((r.hash_sym for r in records), dtype=np.uint32, count=n),
            wire_lens=np.fromiter((r.wire_len for r in records), dtype=np.int64, count=n),
            valid=np.fromiter((r.valid for r in records), dtype=bool, count=n),
            touches_global=np.fromiter(
                (r.touches_global for r in records), dtype=bool, count=n),
        )
        self._records: Optional[List[PerfPacket]] = records

    def _bind_columns(
        self,
        program_name: str,
        name: str,
        key_table: List[object],
        key_ids: np.ndarray,
        hash_l3: np.ndarray,
        hash_l4: np.ndarray,
        hash_sym: np.ndarray,
        wire_lens: np.ndarray,
        valid: np.ndarray,
        touches_global: np.ndarray,
    ) -> None:
        self.program_name = program_name
        self.name = name
        self.key_table = key_table
        self.key_ids = key_ids
        self.hash_l3 = hash_l3
        self.hash_l4 = hash_l4
        self.hash_sym = hash_sym
        self.wire_lens = wire_lens
        self.valid = valid
        self.touches_global = touches_global
        for column in (key_ids, hash_l3, hash_l4, hash_sym,
                       wire_lens, valid, touches_global):
            column.setflags(write=False)
        self._unique_keys: Optional[int] = None

    @classmethod
    def from_columns(
        cls,
        program_name: str,
        name: str,
        key_table: List[object],
        key_ids: np.ndarray,
        hash_l3: np.ndarray,
        hash_l4: np.ndarray,
        hash_sym: np.ndarray,
        wire_lens: np.ndarray,
        valid: np.ndarray,
        touches_global: np.ndarray,
    ) -> "PerfTrace":
        """Build directly from columns (the vectorized lowering path)."""
        pt = cls.__new__(cls)
        pt._bind_columns(
            program_name=program_name, name=name, key_table=key_table,
            key_ids=key_ids, hash_l3=hash_l3, hash_l4=hash_l4,
            hash_sym=hash_sym, wire_lens=wire_lens, valid=valid,
            touches_global=touches_global,
        )
        pt._records = None
        return pt

    def __len__(self) -> int:
        return len(self.key_ids)

    @property
    def records(self) -> List[PerfPacket]:
        """Row-major :class:`PerfPacket` view, rebuilt lazily on demand."""
        if self._records is None:
            table = self.key_table
            self._records = [
                PerfPacket(index=i, key=table[kid], hash_l3=h3, hash_l4=h4,
                           hash_sym=hs, wire_len=wl, valid=v, touches_global=tg)
                for i, (kid, h3, h4, hs, wl, v, tg) in enumerate(zip(
                    self.key_ids.tolist(), self.hash_l3.tolist(),
                    self.hash_l4.tolist(), self.hash_sym.tolist(),
                    self.wire_lens.tolist(), self.valid.tolist(),
                    self.touches_global.tolist()))
            ]
        return self._records

    @property
    def unique_keys(self) -> int:
        """Distinct state keys among valid packets (lazy, cached)."""
        if self._unique_keys is None:
            ids = self.key_ids[self.valid]
            self._unique_keys = int(np.unique(ids).size) if ids.size else 0
        return self._unique_keys

    def __getstate__(self) -> Dict[str, object]:
        return {f: getattr(self, f) for f in self._COLUMN_STATE}

    def __setstate__(self, state: Dict[str, object]) -> None:
        if set(state) != set(self._COLUMN_STATE):
            raise ValueError("incompatible PerfTrace pickle (pre-columnar layout)")
        kwargs = dict(state)
        self._bind_columns(**kwargs)  # type: ignore[arg-type]
        self._records = None

    @classmethod
    def from_trace(
        cls, trace: Trace, program: PacketProgram,
        hotpath: Optional[str] = None,
    ) -> "PerfTrace":
        """Lower ``trace`` for ``program``.

        What the headers alone decide (the hash inputs, ``wire_lens``,
        ``valid`` and, in columnar mode, the three Toeplitz columns) is
        read once per trace and shared by every program lowered from it;
        only the program's metadata, keys and ``touches_global`` are
        read per program.
        """
        from .columnar import resolve_hotpath

        headers = trace.derived("lowering.headers", _read_headers)
        if resolve_hotpath(hotpath) == "columnar":
            l3, l4, sym = trace.derived("lowering.toeplitz", _toeplitz_columns)
        else:
            l3, l4, sym = _scalar_toeplitz(headers.packed)
        extract = program.extract_metadata
        key_of = program.key
        touches_global = program.touches_global
        key_index: Dict[object, int] = {}
        key_ids: List[int] = []
        touches: List[bool] = []
        for pkt in trace:
            meta = extract(pkt)
            key = key_of(meta)
            kid = key_index.get(key)
            if kid is None:
                kid = key_index[key] = len(key_index)
            key_ids.append(kid)
            touches.append(touches_global(meta))
        return cls.from_columns(
            program_name=program.name,
            name=trace.name,
            key_table=list(key_index),
            key_ids=np.asarray(key_ids, dtype=np.int64),
            hash_l3=l3,
            hash_l4=l4,
            hash_sym=sym,
            wire_lens=headers.wire_lens,
            valid=headers.valid,
            touches_global=np.asarray(touches, dtype=bool),
        )


#: The 12-byte RSS 4-tuple input (``hash_input_l4``): IPs then ports, big
#: endian.  The L3 input (src+dst IP) is its 8-byte prefix.
_HASH_INPUT = np.dtype([("src", ">u4"), ("dst", ">u4"),
                        ("sport", ">u2"), ("dport", ">u2")])


@dataclass(frozen=True)
class _Headers:
    """The program-independent columns of a lowered trace (read-only)."""

    #: ``(n, 12)`` uint8: each packet's ``hash_input_l4(pkt.five_tuple())``.
    packed: np.ndarray
    wire_lens: np.ndarray
    #: "valid" mirrors the program's control dependency: packets that
    #: cannot touch state (not IPv4) still cost dispatch.
    valid: np.ndarray


def _read_headers(trace: Trace) -> _Headers:
    """One pass over ``trace``'s headers, shared by every program.

    The 4-tuple follows ``Packet.five_tuple``: all zero without an IPv4
    header, zero ports without an L4 header.
    """
    packets = trace.packets
    n = len(packets)
    ips = [p.ip for p in packets]
    l4s = [p.l4 if ip is not None else None for p, ip in zip(packets, ips)]
    rows = np.zeros(n, dtype=_HASH_INPUT)
    valid = np.fromiter((ip is not None for ip in ips), dtype=bool, count=n)
    rows["src"] = [ip.src if ip is not None else 0 for ip in ips]
    rows["dst"] = [ip.dst if ip is not None else 0 for ip in ips]
    rows["sport"] = [l4.sport if l4 is not None else 0 for l4 in l4s]
    rows["dport"] = [l4.dport if l4 is not None else 0 for l4 in l4s]
    packed = rows.view(np.uint8).reshape(n, _HASH_INPUT.itemsize)
    wire_lens = np.fromiter((p.wire_len for p in packets), dtype=np.int64, count=n)
    for column in (packed, wire_lens, valid):
        column.setflags(write=False)
    return _Headers(packed=packed, wire_lens=wire_lens, valid=valid)


def _toeplitz_columns(trace: Trace) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three Toeplitz columns of ``trace``, hashed as a batch."""
    packed = trace.derived("lowering.headers", _read_headers).packed
    columns = (
        toeplitz_hash_batch(packed[:, :8]),
        toeplitz_hash_batch(packed),
        toeplitz_hash_batch(packed, key=SYMMETRIC_RSS_KEY),
    )
    for column in columns:
        column.setflags(write=False)
    return columns


def _scalar_toeplitz(packed: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scalar oracle's Toeplitz columns: one ``toeplitz_hash`` per row
    over the same bytes the batch path hashes."""
    raw = packed.tobytes()
    width = _HASH_INPUT.itemsize
    inputs = [raw[i:i + width] for i in range(0, len(raw), width)]
    n = len(inputs)
    return (
        np.fromiter((toeplitz_hash(p[:8]) for p in inputs), dtype=np.uint32, count=n),
        np.fromiter((toeplitz_hash(p) for p in inputs), dtype=np.uint32, count=n),
        np.fromiter((toeplitz_hash(p, key=SYMMETRIC_RSS_KEY) for p in inputs),
                    dtype=np.uint32, count=n),
    )


class PerfEngine(Protocol):
    """What a scaling technique must provide to the simulator."""

    name: str
    num_cores: int
    counters: SystemCounters

    def reset(self) -> None:
        """Clear all run state (called by :func:`simulate`)."""

    def wire_len(self, pp: PerfPacket) -> int:
        """Bytes this packet occupies on the wire (SCR adds history)."""

    # Engines may additionally define ``dma_len(pp)`` — bytes crossing the
    # host interconnect, which can exceed wire bytes when a NIC-resident
    # sequencer appends history after the MAC (§4.2 PCIe overheads).  The
    # simulator falls back to ``wire_len`` when absent.
    #
    # Engines with per-packet steering records (SCR's sprays) define
    # ``record_steer(pp, core, now_ns)``; observed runs call it right after
    # ``steer`` so the record carries the packet's arrival time.
    #
    # Engines may also opt into the columnar hot path by providing the
    # batched hooks (``columnar_eligible`` / ``wire_len_batch`` /
    # ``dma_len_batch`` / ``steer_batch`` / ``commit_steer_batch`` /
    # ``history_cap`` / ``touches_state`` / ``record_committed``, their
    # term function as ``row_terms`` plus the ``count_committed`` commit
    # hook — or ``coupled_walk`` for coupled cores — and ``gap_charge`` /
    # ``record_gap`` for engines that charge fault gaps).
    # ``repro.parallel.base.BaseEngine`` carries conservative defaults
    # (ineligible) and the ``service_rows`` / ``service_row`` /
    # ``service_batch`` callers of ``row_terms`` the driver uses.  Engines
    # without the hooks (or reporting ineligible) run on the scalar event
    # loop below unchanged (see docs/HOTPATH.md).

    def steer(self, pp: PerfPacket) -> int:
        """RX queue / core index for this packet."""

    def service_ns(self, core: int, pp: PerfPacket, start_ns: float) -> float:
        """Per-packet service time; must also charge the core's counters."""


@dataclass
class SimResult:
    """Outcome of one fixed-rate simulation run."""

    offered: int
    processed: int
    wire_dropped: int
    ring_dropped: int
    #: packets still queued when the post-stream grace period expired.
    unfinished: int
    duration_ns: float
    rate_pps: float
    counters: SystemCounters
    #: packets dropped because the host interconnect (PCIe) saturated.
    pcie_dropped: int = 0
    per_core_packets: List[int] = field(default_factory=list)
    #: per-packet sojourn times (arrival → service completion), ns; only
    #: populated when simulate() is called with collect_latency=True.
    latency_samples_ns: Optional[List[float]] = None
    #: log-bucketed sojourn-time distribution; populated alongside the raw
    #: samples, bounded memory, the source for the p50/p90/p99/p999 views.
    latency_histogram: Optional[Histogram] = None
    #: injector summary (counts per fault kind) when the run had a fault
    #: plan; None on fault-free runs so old artifacts stay byte-identical.
    fault_stats: Optional[Dict[str, object]] = None
    #: elephant/mice placement counters (promotions, migrations, quota
    #: drops) when the engine exposes ``placement_summary`` (the hybrid
    #: technique); None otherwise so old artifacts stay byte-identical.
    placement_stats: Optional[Dict[str, object]] = None

    def latency_percentile_ns(self, q: float) -> float:
        """The q-quantile (0..1) of per-packet sojourn time (exact samples)."""
        if not self.latency_samples_ns:
            raise ValueError("run simulate(collect_latency=True) first")
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        ordered = sorted(self.latency_samples_ns)
        idx = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[idx]

    def latency_percentiles_ns(self) -> dict:
        """{"p50": ..., "p90": ..., "p99": ..., "p99_9": ...} from the
        log-bucketed histogram (each within one bucket width, ~9 %)."""
        if self.latency_histogram is None:
            raise ValueError("run simulate(collect_latency=True) first")
        return self.latency_histogram.percentiles()

    @property
    def latency_p50_ns(self) -> float:
        return self.latency_percentiles_ns()["p50"]

    @property
    def latency_p90_ns(self) -> float:
        return self.latency_percentiles_ns()["p90"]

    @property
    def latency_p99_ns(self) -> float:
        return self.latency_percentiles_ns()["p99"]

    @property
    def latency_p999_ns(self) -> float:
        return self.latency_percentiles_ns()["p99_9"]

    @property
    def total_busy_ns(self) -> float:
        """All-core busy time — the denominator of cycle attribution."""
        return sum(c.busy_ns for c in self.counters.cores)

    @property
    def loss_fraction(self) -> float:
        if self.offered == 0:
            return 0.0
        return 1.0 - self.processed / self.offered

    @property
    def achieved_pps(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.processed / self.duration_ns * 1e9

    @property
    def achieved_mpps(self) -> float:
        return self.achieved_pps / 1e6


def _wire_time_ns(wire_len: int, line_rate_bps: float) -> float:
    frame = max(MIN_FRAME_BYTES, wire_len) + ETHERNET_OVERHEAD_BYTES
    return frame * 8 / line_rate_bps * 1e9


def placement_stats(engine: PerfEngine) -> Optional[Dict[str, object]]:
    """``SimResult.placement_stats`` on either hot path: the engine's
    ``placement_summary`` when it has one (the hybrid technique)."""
    summary = getattr(engine, "placement_summary", None)
    return summary() if summary is not None else None


def fault_stats(sf: Optional["SimFaults"],
                engine: PerfEngine) -> Optional[Dict[str, object]]:
    """``SimResult.fault_stats`` on either hot path: the injector's counts
    plus the engine's recovery counters (``fault_summary``), or None for
    a run without a fault plan."""
    if sf is None:
        return None
    stats = sf.summary()
    recovery = getattr(engine, "fault_summary", None)
    if recovery is not None:
        stats.update(recovery())
    return stats


def staging_sinks(tracer: EventTracer, spans: SpanEmitter) -> List[EventTracer]:
    """The enabled tracers a run stages its sampled records into: the
    event tracer and, when it is a separate sink, the span emitter's."""
    sinks = [tracer] if tracer.enabled else []
    if spans.enabled and spans.tracer is not tracer:
        sinks.append(spans.tracer)
    return sinks


def simulate(
    perf_trace: PerfTrace,
    rate_pps: float,
    engine: PerfEngine,
    line_rate_gbps: float = 100.0,
    ring_capacity: int = DEFAULT_DESCRIPTORS,
    burst_size: int = 1,
    grace_fraction: float = 0.0,
    grace_min_ns: float = 1_000.0,
    pcie_rate_gbps: float = 252.0,
    collect_latency: bool = False,
    tracer: EventTracer = NULL_TRACER,
    faults: Optional["FaultPlan"] = None,
    spans: SpanEmitter = NULL_SPANS,
    hostprof: PhaseClock = NULL_HOSTPROF,
    hotpath: Optional[str] = None,
) -> SimResult:
    """Offer ``perf_trace`` at ``rate_pps`` to ``engine`` and measure.

    Packets arrive at fixed spacing (or in back-to-back bursts of
    ``burst_size`` sharing an arrival slot), pass the line-rate wire model,
    get steered to per-core rings, and are drained in arrival order by each
    core.  Time advances with arrivals; each arrival first lets every core
    drain work that completes before it.

    After the offered stream ends, cores get a short grace period
    (``grace_fraction`` of the stream duration, at least ``grace_min_ns``)
    to finish their backlog; whatever is still queued counts as lost.
    Without this cutoff an overloaded run would eventually forward
    everything and MLFFR would be meaningless (RFC 2544 likewise only
    counts frames received within a timeout).

    ``pcie_rate_gbps`` models the host interconnect (default: effective
    PCIe 4.0 x16 throughput, §4.1's system bus).  Each packet's DMA bytes
    (``engine.dma_len``, falling back to ``wire_len``) plus descriptor
    traffic must fit; SCR's history enlarges DMA even when a NIC-resident
    sequencer leaves the wire untouched (§4.2).

    ``tracer`` receives typed events under the retention contract
    (:mod:`repro.telemetry.events`): per-packet service spans and drops
    with their cause are retained for span-sampled packets and counted
    for every packet; fault and recovery events are retained in full; a
    ``sim.run`` summary closes the run.  The run's sampled records are
    staged and released in one canonical order, so both hot paths give
    the same stream; inside a retention scope (an MLFFR search,
    :meth:`EventTracer.hold`) the search decides whether they are kept.

    ``faults`` attaches a seeded :class:`repro.faults.plan.FaultPlan`:
    wire→ring drops and ring-pop drops become loss the engine is told
    about (``note_fault_drop``, so SCR charges gap recovery), duplicates
    cost a dispatch without counting as forwarded, in-ring reordering
    perturbs service order, and core stalls/kills model a slow or dead
    replica.  Fault decisions key on the packet *index*, never on probe
    rate or arrival order, so every MLFFR probe sees the same schedule.

    ``spans`` emits causal ``span.*`` events for deterministically sampled
    packet indices (NIC arrival → ring enqueue → core pop, plus the fault
    path); the default disabled emitter costs one attribute read, and
    emission never moves simulated time.

    ``hotpath`` picks the execution strategy (``scalar`` | ``columnar``;
    default: the ``REPRO_HOTPATH`` env var, else columnar).  The columnar
    driver is bit-identical to the scalar loop, drops, fault drops,
    coupled cores and telemetry included.  It falls back to it only for
    a fault plan with any fault kind but drops, or an engine that is not
    columnar-eligible (or cannot take fault drops): two hybrid modes;
    see :func:`repro.cpu.columnar.simulate_columnar`.
    """
    if rate_pps <= 0:
        raise ValueError("rate must be positive")
    engine.reset()
    from .columnar import record_committed, resolve_hotpath, simulate_columnar

    #: the run's fault injector, shared by both hot paths.
    sf: Optional["SimFaults"] = None
    if faults is not None and faults.any_faults:
        from ..faults.inject import SimFaults

        sf = SimFaults(faults, engine.num_cores)

    #: the span-sampled packets: their per-packet records are emitted on
    #: either hot path, every other packet's are counted.
    sampled = spans.sampled_rows(len(perf_trace))
    sinks = staging_sinks(tracer, spans)
    for sink in sinks:
        sink.stage()
    try:
        committed = None
        if resolve_hotpath(hotpath) == "columnar":
            committed = simulate_columnar(
                perf_trace, rate_pps, engine,
                line_rate_gbps=line_rate_gbps,
                ring_capacity=ring_capacity,
                burst_size=burst_size,
                grace_fraction=grace_fraction,
                grace_min_ns=grace_min_ns,
                pcie_rate_gbps=pcie_rate_gbps,
                collect_latency=collect_latency,
                sim_faults=sf,
                hostprof=hostprof,
            )
        if committed is not None:
            result = committed.result
        else:
            result = _simulate_scalar(
                perf_trace, rate_pps, engine, line_rate_gbps, ring_capacity,
                burst_size, grace_fraction, grace_min_ns, pcie_rate_gbps,
                collect_latency, tracer, sf, spans, sampled, hostprof)
        if committed is not None and (tracer.enabled or spans.enabled):
            record_committed(committed, perf_trace, engine, tracer, spans,
                             sampled)
    finally:
        for sink in sinks:
            sink.release()
    if tracer.enabled:
        summary_fields = dict(
            engine=getattr(engine, "name", "?"),
            rate_pps=rate_pps,
            offered=result.offered,
            processed=result.processed,
            wire_dropped=result.wire_dropped,
            ring_dropped=result.ring_dropped,
            pcie_dropped=result.pcie_dropped,
            unfinished=result.unfinished,
        )
        if result.fault_stats is not None:
            summary_fields["fault_stats"] = result.fault_stats
        if result.placement_stats is not None:
            summary_fields["placement_stats"] = result.placement_stats
        tracer.emit(EV_RUN_SUMMARY, ts_ns=result.duration_ns, **summary_fields)
    return result


def _simulate_scalar(
    perf_trace: PerfTrace,
    rate_pps: float,
    engine: PerfEngine,
    line_rate_gbps: float,
    ring_capacity: int,
    burst_size: int,
    grace_fraction: float,
    grace_min_ns: float,
    pcie_rate_gbps: float,
    collect_latency: bool,
    tracer: EventTracer,
    sf: Optional["SimFaults"],
    spans: SpanEmitter,
    sampled_rows: np.ndarray,
    hostprof: PhaseClock,
) -> SimResult:
    """The scalar event loop: the reference oracle for every run."""
    k = engine.num_cores
    interval = 1e9 / rate_pps
    line_rate_bps = line_rate_gbps * 1e9
    pcie_rate_bps = pcie_rate_gbps * 1e9
    dma_len = getattr(engine, "dma_len", engine.wire_len)
    #: engines that model per-core gap recovery expose note_fault_drop.
    note_fault_drop = getattr(engine, "note_fault_drop", None)
    #: engines with per-packet steering records (SCR's sprays) expose
    #: record_steer, which stamps them at the packet's arrival; only
    #: observed runs call it.
    record_steer = (getattr(engine, "record_steer", None)
                    if tracer.enabled or spans.enabled else None)
    #: a duplicate costs one dispatch, not a full service (the replica
    #: rejects it by sequence number right after dispatch); engines built
    #: on CostParams expose .costs, bare Protocol engines fall back to a
    #: full service charge.
    engine_costs = getattr(engine, "costs", None)

    #: ring entries: (arrival_ns, packet, is_injected_duplicate)
    rings: List[Deque[Tuple[float, PerfPacket, bool]]] = [deque() for _ in range(k)]
    dead = [False] * k
    busy = [0.0] * k
    per_core_packets = [0] * k
    processed = 0
    wire_dropped = 0
    ring_dropped = 0
    pcie_dropped = 0
    wire_free = 0.0
    wire_slack_ns = 0.0
    pcie_free = 0.0
    pcie_slack_ns = 0.0
    last_finish = 0.0

    latency_samples: Optional[List[float]] = [] if collect_latency else None
    latency_hist = Histogram("latency_ns") if collect_latency else None
    #: bind the emit method once; the disabled tracer's emit is a no-op but
    #: the per-packet guard below avoids even the call overhead.
    tracing = tracer.enabled
    emit = tracer.emit
    #: span-sampled packets emit their per-packet records (the retention
    #: contract); every other packet is counted in bulk at the end.
    sampled = frozenset(sampled_rows.tolist())
    spans_on = bool(sampled)
    kept: Dict[str, int] = {}

    def keep(kind: str, ts_ns: float, **fields: object) -> None:
        """Emit a sampled packet's per-packet record."""
        emit(kind, ts_ns=ts_ns, **fields)
        kept[kind] = kept.get(kind, 0) + 1
    #: host wall profiling, hoisted like the tracer/span guards; wall
    #: readings never touch simulated timestamps (`busy`, `now`, ...).
    hp_on = hostprof.enabled

    def drain(core: int, horizon: float) -> None:
        nonlocal processed, last_finish
        if dead[core]:
            return
        ring = rings[core]
        while ring and busy[core] <= horizon:
            arrival, pp, dup = ring[0]
            start = busy[core] if busy[core] > arrival else arrival
            if start > horizon:
                break
            ring.popleft()
            if sf is not None:
                if sf.killed(core, pp.index):
                    # Everything still queued on a dead core is lost.
                    dead[core] = True
                    if tracing:
                        emit(EV_FAULT_KILL, ts_ns=start, core=core,
                             index=pp.index)
                    return
                stall = sf.stall_ns(core, pp.index)
                if stall > 0.0:
                    if tracing:
                        emit(EV_FAULT_STALL, ts_ns=start, core=core,
                             dur_ns=stall, index=pp.index)
                    start += stall
                    busy[core] = start
                    if start > horizon:
                        ring.appendleft((arrival, pp, dup))
                        break
                if not dup and sf.pop_drop(pp.index):
                    # Descriptor consumed, payload discarded: the replica
                    # never sees this packet and must recover the gap.
                    if note_fault_drop is not None:
                        note_fault_drop(core, pp)
                    if tracing:
                        emit(EV_FAULT_POP_DROP, ts_ns=start, core=core,
                             index=pp.index)
                    continue
            if dup:
                # Stale sequence number: rejected right after dispatch.
                service = (engine_costs.d if engine_costs is not None
                           else engine.service_ns(core, pp, start))
                busy[core] = start + service
                if busy[core] > last_finish:
                    last_finish = busy[core]
                continue
            pp_sampled = spans_on and pp.index in sampled
            if pp_sampled:
                spans.emit("core_pop", pp.index, ts_ns=start, core=core)
            if hp_on:
                hostprof.push("engine.service")
            service = engine.service_ns(core, pp, start)
            if hp_on:
                hostprof.pop()
            busy[core] = start + service
            per_core_packets[core] += 1
            processed += 1
            if latency_samples is not None:
                latency_samples.append(busy[core] - arrival)
                latency_hist.observe(busy[core] - arrival)
            if pp_sampled and tracing:
                keep(EV_SERVICE, start, core=core, dur_ns=service,
                     index=pp.index)
            if busy[core] > last_finish:
                last_finish = busy[core]

    records = perf_trace.records
    offered = len(records)
    for i, pp in enumerate(records):
        now = (i // burst_size) * burst_size * interval
        if hp_on:
            hostprof.push("sim.drain")
        for core in range(k):
            drain(core, now)
        if hp_on:
            hostprof.pop()
        pp_sampled = spans_on and pp.index in sampled
        if pp_sampled:
            spans.emit("nic_arrival", pp.index, ts_ns=now,
                       wire_len=pp.wire_len)
        wl = engine.wire_len(pp)
        wt = _wire_time_ns(wl, line_rate_bps)
        if i == 0:
            wire_slack_ns = wt * WIRE_SLACK_FRAMES
        if wire_free - now > wire_slack_ns:
            wire_dropped += 1
            if pp_sampled and tracing:
                keep(EV_WIRE_DROP, now, index=pp.index,
                     backlog_ns=wire_free - now)
            continue
        wire_free = (wire_free if wire_free > now else now) + wt
        # Host interconnect: DMA payload + descriptor + completion traffic.
        dt = (dma_len(pp) + PCIE_DESCRIPTOR_BYTES) * 8 / pcie_rate_bps * 1e9
        if i == 0:
            pcie_slack_ns = dt * WIRE_SLACK_FRAMES
        if pcie_free - now > pcie_slack_ns:
            pcie_dropped += 1
            if pp_sampled and tracing:
                keep(EV_PCIE_DROP, now, index=pp.index,
                     backlog_ns=pcie_free - now)
            continue
        pcie_free = (pcie_free if pcie_free > now else now) + dt
        core = engine.steer(pp)
        if record_steer is not None:
            record_steer(pp, core, now)
        if sf is not None and sf.drop(pp.index):
            # Admitted by the MAC (wire already charged) but lost on the
            # way to the ring; the replica sees a history gap.
            if note_fault_drop is not None:
                note_fault_drop(core, pp)
            if tracing:
                emit(EV_FAULT_DROP, ts_ns=now, core=core, index=pp.index)
            if pp_sampled:
                spans.emit("fault_drop", pp.index, ts_ns=now, core=core)
            continue
        ring = rings[core]
        if len(ring) >= ring_capacity:
            ring_dropped += 1
            if pp_sampled and tracing:
                keep(EV_RING_DROP, now, core=core, index=pp.index,
                     depth=len(ring))
            continue
        if sf is not None:
            offset = sf.reorder_offset(pp.index)
            if offset > 0 and ring:
                # Jump ahead of up to ``offset`` already-queued frames:
                # the queued ones are delivered late relative to this one.
                slot = len(ring) - offset
                ring.insert(slot if slot > 0 else 0, (now, pp, False))
                sf.note_reorder(pp.index)
                if tracing:
                    emit(EV_FAULT_REORDER, ts_ns=now, core=core,
                         index=pp.index, offset=offset)
            else:
                ring.append((now, pp, False))
            if sf.duplicate(pp.index):
                if tracing:
                    emit(EV_FAULT_DUPLICATE, ts_ns=now, core=core,
                         index=pp.index)
                if len(ring) < ring_capacity:
                    ring.append((now, pp, True))
        else:
            ring.append((now, pp, False))
        if pp_sampled:
            spans.emit("ring_enqueue", pp.index, ts_ns=now, core=core,
                       depth=len(ring))

    stream_end = offered * interval
    horizon = stream_end + max(grace_min_ns, grace_fraction * stream_end)
    unfinished = 0
    if hp_on:
        hostprof.push("sim.drain")
    for core in range(k):
        drain(core, horizon)
        unfinished += len(rings[core])
    if hp_on:
        hostprof.pop()

    if tracing:
        for kind, total in ((EV_SERVICE, processed),
                            (EV_WIRE_DROP, wire_dropped),
                            (EV_PCIE_DROP, pcie_dropped),
                            (EV_RING_DROP, ring_dropped)):
            tracer.count(kind, total - kept.get(kind, 0))

    duration = max(last_finish, stream_end)
    return SimResult(
        offered=offered,
        processed=processed,
        wire_dropped=wire_dropped,
        ring_dropped=ring_dropped,
        unfinished=unfinished,
        duration_ns=duration,
        rate_pps=rate_pps,
        counters=engine.counters,
        pcie_dropped=pcie_dropped,
        per_core_packets=per_core_packets,
        latency_samples_ns=latency_samples,
        latency_histogram=latency_hist,
        fault_stats=fault_stats(sf, engine),
        placement_stats=placement_stats(engine),
    )

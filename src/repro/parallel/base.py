"""Common machinery for the scaling-technique performance engines.

Each engine implements the :class:`~repro.cpu.simulator.PerfEngine` protocol
for one technique from §2/§3: shared state (atomics or locks), sharding (RSS
or RSS++), or SCR.  The engines translate a technique's mechanism into
per-packet service time and counter charges using the Table 4 cost
parameters and the contention constants in ``repro.cpu.costmodel``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..cpu.cache import L2Model
from ..cpu.costmodel import (
    DEFAULT_CONTENTION,
    TABLE4_PARAMS,
    ContentionParams,
    CostParams,
)
from ..cpu.counters import CoreCounters, SystemCounters
from ..cpu.simulator import PerfPacket
from ..hostprof.clock import NULL_HOSTPROF, PhaseClock
from ..obs.spans import NULL_SPANS, SpanEmitter
from ..programs.base import PacketProgram
from ..telemetry.events import NULL_TRACER, EventTracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cpu.columnar import ColumnarRun
    from ..cpu.simulator import PerfTrace

__all__ = ["BaseEngine", "Terms", "hash_for_program", "pick"]


def hash_for_program(program: PacketProgram,
                     pp: Union[PerfPacket, "PerfTrace"]) -> Any:
    """The RSS hash a NIC would use to shard this program correctly: one
    packet's, or every packet's column of a whole trace.

    Table 1's "RSS hash fields" column: IP-pair programs hash L3 only;
    5-tuple programs hash L4; bidirectional programs need the symmetric key
    so both directions land on one core [70].
    """
    if program.bidirectional:
        return pp.hash_sym
    if program.rss_fields == "src & dst IP":
        return pp.hash_l3
    return pp.hash_l4


def pick(cond: Any, a: Any, b: Any) -> Any:
    """``a`` where ``cond`` holds, else ``b``: ``np.where`` over columns,
    a plain branch over one packet's numbers (which stay Python floats).
    The engines' term functions select with it, so one formula serves
    both hot paths."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


class Terms(NamedTuple):
    """One packet's cost, or columns of them, one row per packet: its
    service time and what the core's counters are charged for it (the
    ``charge_packet`` fields; dispatch is always ``d``)."""

    service: Any
    compute: Any
    transfer: Any
    accesses: Any
    misses: Any
    program: Any
    history: Any

    def charges(self) -> Dict[str, Any]:
        """The ``charge_batch`` keywords, dispatch aside (the columns
        :meth:`BaseEngine.charge_rows` takes)."""
        return dict(compute_ns=self.compute, transfer_ns=self.transfer,
                    state_accesses=self.accesses, l2_misses=self.misses,
                    program_ns=self.program, history_ns=self.history)


class BaseEngine(ABC):
    """Shared state for the per-technique engines."""

    name = "base"

    def __init__(
        self,
        program: PacketProgram,
        num_cores: int,
        costs: Optional[CostParams] = None,
        contention: ContentionParams = DEFAULT_CONTENTION,
        tracer: EventTracer = NULL_TRACER,
        spans: SpanEmitter = NULL_SPANS,
        hostprof: PhaseClock = NULL_HOSTPROF,
    ) -> None:
        if num_cores < 1:
            raise ValueError("need at least one core")
        self.program = program
        self.num_cores = num_cores
        #: telemetry event sink; the default disabled tracer is free.
        self.tracer = tracer
        #: causal span emitter for sampled packets (disabled by default).
        self.spans = spans
        #: host wall-clock phase sink (disabled by default; never feeds
        #: simulated time — see docs/PROFILING.md).
        self.hostprof = hostprof
        if costs is None:
            try:
                costs = TABLE4_PARAMS[program.name]
            except KeyError:
                raise KeyError(
                    f"no Table 4 cost parameters for program {program.name!r}; "
                    "pass costs= explicitly"
                ) from None
        self.costs = costs
        self.contention = contention
        self.counters = SystemCounters()
        self.l2 = L2Model(num_cores, spill_ns=contention.l2_spill_ns)
        self._build_counters()

    def _build_counters(self) -> None:
        self.counters.cores = [CoreCounters(core_id=i) for i in range(self.num_cores)]

    def reset(self) -> None:
        """Clear run state; subclasses extend."""
        self._build_counters()
        self.l2.reset()

    # Default protocol pieces; engines override what differs. ------------------

    def wire_len(self, pp: PerfPacket) -> int:
        return pp.wire_len

    def note_fault_drop(self, core: int, pp: PerfPacket) -> None:
        """The simulator fault-dropped a packet already steered to ``core``.

        Techniques with per-core replicas (SCR) override this to charge
        gap recovery on the core's next service; for shared-state and
        sharded techniques a lost packet is just a lost packet.
        """

    @abstractmethod
    def steer(self, pp: PerfPacket) -> int:
        ...

    @abstractmethod
    def service_ns(self, core: int, pp: PerfPacket, start_ns: float) -> float:
        ...

    def _charge(self, core: int, terms: Terms) -> float:
        """Charge one packet's ``terms`` to ``core``'s counters (the scalar
        loop); returns its service time."""
        service, compute, transfer, accesses, misses, program, history = terms
        self.counters.cores[core].charge_packet(
            self.costs.d, compute, 0.0, transfer, accesses, misses, program,
            history)
        return service

    # Columnar hot-path hooks (see repro.cpu.columnar / docs/HOTPATH.md).
    # Conservative defaults: an engine is ineligible until it opts in and
    # provides ``steer_batch`` plus its term function as ``row_terms``
    # (or, for coupled cores, ``coupled_walk``); ``service_rows`` /
    # ``service_row`` / ``service_batch`` below are thin callers of it.

    #: Does a fault drop charge gap recovery to the core's next valid
    #: service (``note_fault_drop``)?  The columnar driver derives each
    #: row's gap only for engines that do.
    charges_fault_gaps = False

    def columnar_eligible(self, fault_drops: bool = False) -> bool:
        """Can whole runs be replayed on the columnar hot path — with
        ``fault_drops``, runs whose fault plan drops packets between
        admission and the ring?

        True when steering is a walk over the admitted rows in arrival
        order (no RNG, nothing read at service time), and each service
        is row math given what the driver solves per core (L2 outcome,
        history depth, fault gap) or, for engines whose cores are
        coupled (:attr:`couples_cores`), given the call order the
        driver's merged walk replays.
        """
        return False

    #: Do services on one core depend on services on others (a shared
    #: key's wait and bounced line, a migrated shard's first touch)?  The
    #: columnar driver then serves every core in one merged walk, in the
    #: scalar loop's call order, through :meth:`coupled_walk`.
    couples_cores = False

    def coupled_walk(self, trace: "PerfTrace"):
        """A fresh walk over one committed run of a coupled engine, with
        ``serve(core, row, step, start) -> float`` — serve ``row`` on
        ``core`` from ``start`` at loop step ``step`` (the arrival whose
        drain pops it; ``n``: the final drain) with the engine's live
        models, record its charges and return its service — and
        ``commit(rows, cores)``, which charges the counters for the
        served rows (call order) from what ``serve`` recorded."""
        raise NotImplementedError(f"{self.name} does not couple its cores")

    def wire_len_batch(self, trace: "PerfTrace") -> np.ndarray:
        """Per-packet wire bytes for the whole trace (``wire_len`` rowwise)."""
        return trace.wire_lens

    def dma_len_batch(self, trace: "PerfTrace") -> np.ndarray:
        """Per-packet host-interconnect bytes (defaults to wire bytes,
        mirroring the simulator's scalar ``dma_len -> wire_len`` fallback)."""
        return self.wire_len_batch(trace)

    def steer_batch(self, trace: "PerfTrace", rows: np.ndarray) -> np.ndarray:
        """Target core of each of ``rows`` — the packets admitted to
        steering, in arrival order.  It may record the rows' routes for
        the service hooks, as ``steer`` does per packet; steer counters
        advance in :meth:`commit_steer_batch`."""
        raise NotImplementedError(f"{self.name} has no batched steering")

    def commit_steer_batch(self, count: int) -> None:
        """Advance steer state as if ``count`` packets were steered."""

    def touches_state(self, trace: "PerfTrace", rows: np.ndarray) -> np.ndarray:
        """Which of ``rows`` touch flow state, and so the L2 model: every
        valid packet, unless the technique routes some statelessly."""
        return trace.valid[rows]

    def history_cap(self) -> int:
        """Upper bound on piggybacked history items per packet (0 for
        techniques that carry no history)."""
        return 0

    def row_terms(
        self,
        trace: "PerfTrace",
        rows: Any,
        miss_frac: Any,
        spill_ns: Any,
        history_items: Any,
        gaps: Optional[Any] = None,
    ) -> Terms:
        """The engine's term function over ``rows`` (columns) or one row
        (plain numbers), given each row's L2 outcome, history depth and,
        for :attr:`charges_fault_gaps` engines, fault gap (None: no row
        pays one).  Charges nothing."""
        raise NotImplementedError(f"{self.name} has no row math")

    def service_rows(
        self,
        trace: "PerfTrace",
        rows: np.ndarray,
        miss_frac: np.ndarray,
        spill_ns: np.ndarray,
        history_items: np.ndarray,
        gaps: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Pure service times (ns) for ``rows`` (:meth:`row_terms`)."""
        return self.row_terms(trace, rows, miss_frac, spill_ns,
                              history_items, gaps).service

    def service_row(self, trace: "PerfTrace", row: int, miss_frac: float,
                    spill_ns: float, h: int, gap: int = 0) -> float:
        """:meth:`service_rows` for one row, over plain floats (the
        per-core walk's rare cases)."""
        return float(self.row_terms(trace, row, miss_frac, spill_ns, h,
                                    gap or None).service)

    def service_batch(
        self,
        trace: "PerfTrace",
        rows: np.ndarray,
        cores: np.ndarray,
        miss_frac: np.ndarray,
        spill_ns: np.ndarray,
        history_items: np.ndarray,
        gaps: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Serve a committed run's popped ``rows`` (in the scalar loop's
        pop order, on ``cores``): charge the counters and the engine's
        own tallies (:meth:`count_committed`), and return each service
        time.  The driver solved each row's L2 outcome, history depth and
        gap; the L2 model itself is filled by the driver."""
        terms = self.row_terms(trace, rows, miss_frac, spill_ns,
                               history_items, gaps)
        self.charge_rows(cores, **terms.charges())
        self.count_committed(trace, rows, history_items, gaps)
        return terms.service

    def count_committed(self, trace: "PerfTrace", rows: np.ndarray,
                        history_items: np.ndarray,
                        gaps: Optional[np.ndarray]) -> None:
        """Advance the engine's own tallies for the committed ``rows``
        (pop order), as their services on the scalar loop do.  Default:
        none."""

    def charge_rows(self, cores: np.ndarray,
                    after: Optional[Tuple[np.ndarray, Dict[str, Any]]] = None,
                    **columns: Any) -> None:
        """Charge served rows (the scalar loop's pop order, on ``cores``)
        per core through ``charge_batch``: ``columns`` are its keyword
        columns over the rows (a scalar stands for every row), dispatch
        is ``d``.  ``after``, ``(positions, columns)``, charges one more
        access right after the row at each position: its entries fold in
        after the row's own, as ``service_ns`` adds them."""
        def full(values: Any, count: int) -> np.ndarray:
            if isinstance(values, np.ndarray):
                return values
            return np.full(count, values)

        columns = {name: full(column, len(cores))
                   for name, column in columns.items()}
        columns["dispatch_ns"] = full(self.costs.d, len(cores))
        for core in range(self.num_cores):
            sel = np.flatnonzero(cores == core)
            if not len(sel):
                continue
            charge = {name: column[sel] for name, column in columns.items()}
            if after is not None:
                at, extra = after
                mine = cores[at] == core
                where = np.searchsorted(sel, at[mine]) + 1
                for name, values in extra.items():
                    charge[name] = np.insert(charge[name], where,
                                             full(values, len(at))[mine])
            self.counters.cores[core].charge_batch(**charge)

    def record_committed(self, trace: "PerfTrace", run: "ColumnarRun",
                         sampled: np.ndarray) -> None:
        """Stage the engine's own per-packet records for a committed
        columnar run — what ``steer``/``service_ns`` emit on the scalar
        loop — for the span-``sampled`` rows, and count the rest.
        Default: none (the technique emits no per-packet kinds)."""

"""Common machinery for the scaling-technique performance engines.

Each engine implements the :class:`~repro.cpu.simulator.PerfEngine` protocol
for one technique from §2/§3: shared state (atomics or locks), sharding (RSS
or RSS++), or SCR.  The engines translate a technique's mechanism into
per-packet service time and counter charges using the Table 4 cost
parameters and the contention constants in ``repro.cpu.costmodel``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Optional

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

__all__ = ["BaseEngine", "hash_for_program", "hash_column_for_program"]


def hash_for_program(program: PacketProgram, pp: PerfPacket) -> int:
    """The RSS hash a NIC would use to shard this program correctly.

    Table 1's "RSS hash fields" column: IP-pair programs hash L3 only;
    5-tuple programs hash L4; bidirectional programs need the symmetric key
    so both directions land on one core [70].
    """
    if program.bidirectional:
        return pp.hash_sym
    if program.rss_fields == "src & dst IP":
        return pp.hash_l3
    return pp.hash_l4


def hash_column_for_program(program: PacketProgram, trace: "PerfTrace") -> np.ndarray:
    """Column twin of :func:`hash_for_program`: the whole trace's RSS
    hashes under the program's configured hash fields."""
    if program.bidirectional:
        return trace.hash_sym
    if program.rss_fields == "src & dst IP":
        return trace.hash_l3
    return trace.hash_l4


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

    # Columnar hot-path hooks (see repro.cpu.columnar / docs/HOTPATH.md).
    # Conservative defaults: an engine is ineligible until it opts in and
    # provides batched ``steer_batch`` / ``service_rows`` /
    # ``service_batch`` row math.

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

    def service_rows(
        self,
        trace: "PerfTrace",
        rows: np.ndarray,
        miss_frac: np.ndarray,
        spill_ns: np.ndarray,
        history_items: np.ndarray,
        gaps: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Pure service times (ns) for ``rows``, given each row's L2
        outcome, history depth and (for :attr:`charges_fault_gaps`
        engines) fault gap; charges nothing."""
        raise NotImplementedError(f"{self.name} has no batched service math")

    def service_row(self, trace: "PerfTrace", row: int, miss_frac: float,
                    spill_ns: float, h: int, gap: int = 0) -> float:
        """:meth:`service_rows` for one row (the per-core walk's rare
        cases).  Engines whose row math is cheap override it with plain
        float arithmetic in the same order."""
        return float(self.service_rows(
            trace, np.array([row]), np.array([miss_frac]),
            np.array([spill_ns]), np.array([h]),
            np.array([gap]) if gap else None)[0])

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
        pop order, on ``cores``) and charge the counters, returning each
        service time.  The driver solved each row's L2 outcome, history
        depth and gap; the L2 model itself is filled by the driver."""
        raise NotImplementedError(f"{self.name} has no batched service math")

    def record_committed(self, trace: "PerfTrace", run: "ColumnarRun",
                         sampled: np.ndarray) -> None:
        """Stage the engine's own per-packet records for a committed
        columnar run — what ``steer``/``service_ns`` emit on the scalar
        loop — for the span-``sampled`` rows, and count the rest.
        Default: none (the technique emits no per-packet kinds)."""

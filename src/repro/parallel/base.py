"""Common machinery for the scaling-technique performance engines.

Each engine implements the :class:`~repro.cpu.simulator.PerfEngine` protocol
for one technique from §2/§3: shared state (atomics or locks), sharding (RSS
or RSS++), or SCR.  The engines translate a technique's mechanism into
per-packet service time and counter charges using the Table 4 cost
parameters and the contention constants in ``repro.cpu.costmodel``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, List, Optional

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
    # Conservative defaults: an engine is ineligible until it opts in, and
    # ``service_batch`` falls back to a scalar shim over ``service_ns`` so
    # every technique keeps working unchanged when called in bursts.

    def columnar_eligible(self) -> bool:
        """Can whole runs be replayed as batched row math?

        Only true when steering and service time are pure functions of the
        packet row (plus replay-invariant engine state) — no time-dependent
        contention, no RNG, no mutable steering tables.
        """
        return False

    def wire_len_batch(self, trace: "PerfTrace") -> np.ndarray:
        """Per-packet wire bytes for the whole trace (``wire_len`` rowwise)."""
        return trace.wire_lens

    def dma_len_batch(self, trace: "PerfTrace") -> np.ndarray:
        """Per-packet host-interconnect bytes (defaults to wire bytes,
        mirroring the simulator's scalar ``dma_len -> wire_len`` fallback)."""
        return self.wire_len_batch(trace)

    def steer_batch(self, trace: "PerfTrace") -> np.ndarray:
        """Target core per packet for the whole trace, without mutating
        steer state (the driver calls :meth:`commit_steer_batch` once the
        speculative run is known to commit)."""
        raise NotImplementedError(f"{self.name} has no batched steering")

    def commit_steer_batch(self, count: int) -> None:
        """Advance steer state as if ``count`` packets were steered."""

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
    ) -> np.ndarray:
        """Pure service times (ns) for ``rows``, given each row's L2
        outcome and history depth; charges nothing."""
        raise NotImplementedError(f"{self.name} has no batched service math")

    def service_batch(
        self,
        trace: "PerfTrace",
        rows: np.ndarray,
        cores: np.ndarray,
        start_ns: np.ndarray,
        steered_before: np.ndarray,
    ) -> np.ndarray:
        """Service a burst of packets and charge counters, returning each
        packet's service time.  ``rows`` are trace indices in service
        order; ``steered_before`` is how many packets had been steered
        when each one reached its core (what SCR's history depth reads).

        Default: a scalar shim over :meth:`service_ns`, so engines without
        batched row math behave identically when driven in bursts.
        """
        records = trace.records
        out = np.empty(len(rows), dtype=np.float64)
        for i in range(len(rows)):
            out[i] = self.service_ns(
                int(cores[i]), records[int(rows[i])], float(start_ns[i]))
        return out

    def record_committed(self, trace: "PerfTrace", run: "ColumnarRun",
                         sampled: List[int]) -> None:
        """Emit the engine's own per-packet records for a committed
        columnar run — what ``steer``/``service_ns`` emit on the scalar
        loop — for the span-``sampled`` rows, and count the rest.
        Default: none (the technique emits no per-packet kinds)."""

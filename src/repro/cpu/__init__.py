"""Multicore CPU performance-simulation substrate."""

from .cache import L2Model
from .costmodel import (
    CPU_FREQ_GHZ,
    DEFAULT_CONTENTION,
    L2_BYTES,
    STATE_ENTRY_BYTES,
    TABLE4_PARAMS,
    ContentionParams,
    CostParams,
)
from .counters import (
    INSNS_PER_COMPUTE_NS,
    INSNS_PER_DISPATCH,
    POLL_IPC,
    CoreCounters,
    SystemCounters,
)
from .locks import LineTable
from .simulator import PerfEngine, PerfPacket, PerfTrace, SimResult, simulate

__all__ = [
    "L2Model",
    "CPU_FREQ_GHZ",
    "DEFAULT_CONTENTION",
    "L2_BYTES",
    "STATE_ENTRY_BYTES",
    "TABLE4_PARAMS",
    "ContentionParams",
    "CostParams",
    "INSNS_PER_COMPUTE_NS",
    "INSNS_PER_DISPATCH",
    "POLL_IPC",
    "CoreCounters",
    "SystemCounters",
    "LineTable",
    "PerfEngine",
    "PerfPacket",
    "PerfTrace",
    "SimResult",
    "simulate",
]

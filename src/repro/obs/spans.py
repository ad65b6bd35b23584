"""Parent-linked causal spans over the existing event tracer.

A sampled packet's journey becomes a small trace: every stage it passes
emits one ``span.<stage>`` event carrying a ``trace`` id (stable per
packet), a ``span`` id, and the ``parent`` span id — the classic
distributed-tracing triple, flattened into the PR-1 event ring so the
JSONL/Chrome exporters, the artifact manifest, and ``scr-repro report``
all see it without a second pipeline.

The stage graph is static (it *is* the datapath):

.. code-block:: text

    nic_arrival ─▶ ring_enqueue ─▶ core_pop ─▶ history_ff ─▶ transition
         │                            │
         └─▶ fault_drop               ├─▶ gap_detected        (no recovery)
                                      └─▶ quarantine ─▶ checkpoint_fetch
                                                         ─▶ replay ─▶ resync

Span and trace ids are splitmix64 hashes of ``(seed, index, stage)`` —
no counters, so emission order, probe rate, and process never change an
id.  Emitting is observational only: no simulated timestamp moves.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from ..telemetry.events import NULL_TRACER, EventTracer
from .sampling import SpanSampler, splitmix64

__all__ = [
    "SPAN_PREFIX",
    "SPAN_STAGES",
    "SPAN_PARENT",
    "span_kind",
    "SpanEmitter",
    "NULL_SPANS",
]

#: Every span event kind starts with this (the exporters' category).
SPAN_PREFIX = "span."

#: The datapath stages, in causal order (index doubles as the id salt).
SPAN_STAGES: Tuple[str, ...] = (
    "nic_arrival",
    "ring_enqueue",
    "core_pop",
    "history_ff",
    "transition",
    "fault_drop",
    "gap_detected",
    "quarantine",
    "checkpoint_fetch",
    "replay",
    "resync",
)

#: stage -> parent stage (None = trace root).  Immutable: the graph is
#: part of the trace format, not runtime state.
SPAN_PARENT: Mapping[str, Optional[str]] = MappingProxyType({
    "nic_arrival": None,
    "ring_enqueue": "nic_arrival",
    "core_pop": "ring_enqueue",
    "history_ff": "core_pop",
    "transition": "history_ff",
    "fault_drop": "nic_arrival",
    "gap_detected": "core_pop",
    "quarantine": "core_pop",
    "checkpoint_fetch": "quarantine",
    "replay": "checkpoint_fetch",
    "resync": "replay",
})

_STAGE_INDEX: Mapping[str, int] = MappingProxyType(
    {stage: i for i, stage in enumerate(SPAN_STAGES)}
)

_STAGE_MIX = 0xD1B54A32D192ED03


def span_kind(stage: str) -> str:
    """The event kind a stage emits under (``span.core_pop`` etc.)."""
    return SPAN_PREFIX + stage


def span_id(trace_id: int, stage: str) -> int:
    """Deterministic per-(trace, stage) span id."""
    return splitmix64(trace_id ^ ((_STAGE_INDEX[stage] + 1) * _STAGE_MIX))


class SpanEmitter:
    """Emits ``span.*`` events for sampled packets into a tracer.

    Hot paths hoist ``enabled`` (tracer on *and* a nonzero sampling rate)
    and guard per packet with :meth:`sampled` — the disabled singleton
    :data:`NULL_SPANS` costs one attribute read, like ``NULL_TRACER``.
    """

    __slots__ = ("tracer", "sampler", "enabled", "_ids")

    def __init__(self, tracer: EventTracer, sampler: SpanSampler) -> None:
        self.tracer = tracer
        self.sampler = sampler
        self.enabled = tracer.enabled and sampler.rate > 0.0
        #: (index, stage) -> (kind, trace, span, parent): every probe of a
        #: search re-emits the same sampled packets' stages.  Holds at most
        #: the ring's capacity, so memory stays bounded like the ring.
        self._ids: Dict[Tuple[int, str], Tuple[str, int, int, Optional[int]]] = {}

    def sampled(self, index: int) -> bool:
        """Per-packet guard: emit spans for this packet at all?"""
        return self.enabled and self.sampler.sampled(index)

    def sampled_rows(self, count: int) -> List[int]:
        """The sampled indices in ``range(count)``, ascending (none when
        disabled) — the rows a columnar post-pass records."""
        return self.sampler.sampled_indices(count) if self.enabled else []

    def emit(
        self,
        stage: str,
        index: int,
        ts_ns: Optional[float] = None,
        core: Optional[int] = None,
        dur_ns: Optional[float] = None,
        **fields: object,
    ) -> None:
        """Emit one span for packet ``index`` (caller checked :meth:`sampled`).

        The parent link comes from the static stage graph; callers never
        thread span ids through the datapath.
        """
        ids = self._ids.get((index, stage))
        if ids is None:
            if stage not in _STAGE_INDEX:
                raise ValueError(f"unknown span stage {stage!r}")
            trace = self.sampler.trace_id(index)
            parent_stage = SPAN_PARENT[stage]
            ids = (span_kind(stage), trace, span_id(trace, stage),
                   None if parent_stage is None
                   else span_id(trace, parent_stage))
            if len(self._ids) < self.tracer.capacity:
                self._ids[(index, stage)] = ids
        kind, trace, span, parent = ids
        self.tracer.emit(
            kind,
            ts_ns=ts_ns,
            core=core,
            dur_ns=dur_ns,
            trace=trace,
            span=span,
            parent=parent,
            index=index,
            **fields,
        )


#: The shared disabled emitter every layer defaults to (cf. NULL_TRACER).
NULL_SPANS = SpanEmitter(NULL_TRACER, SpanSampler(0, 0.0))

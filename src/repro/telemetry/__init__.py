"""Unified telemetry: metrics registry, event tracing, run artifacts.

The observability layer the evaluation's attribution story rests on
(PCM/BPF profiling, Fig. 8): every subsystem emits named metrics and typed
events here, exporters turn a run into a JSONL event log + Chrome trace +
Prometheus text, and :class:`RunArtifact` ties them to the config and git
SHA that produced them.  Disabled (the default everywhere), all of it is a
no-op fast path.  See ``docs/TELEMETRY.md`` for the event catalog and the
artifact schema.
"""

from .artifact import (
    EVENTS_NAME,
    MANIFEST_NAME,
    NULL_TELEMETRY,
    PROM_NAME,
    TRACE_NAME,
    RunArtifact,
    Telemetry,
    current_git_sha,
)
from .attribution import (
    CoreAttribution,
    RunAttribution,
    attribution_from_snapshot,
)
from .events import (
    EV_FAST_FORWARD,
    EV_HISTORY_DEPTH,
    EV_LOCK_WAIT,
    EV_MLFFR_PROBE,
    EV_PCIE_DROP,
    EV_RECOVERY_BLOCKED,
    EV_RECOVERY_FINISH,
    EV_RECOVERY_START,
    EV_RING_DROP,
    EV_RUN_SUMMARY,
    EV_SERVICE,
    EV_SPRAY,
    EV_WIRE_DROP,
    NULL_TRACER,
    Event,
    EventTracer,
)
from .exporters import (
    chrome_trace_dict,
    events_to_chrome_trace,
    events_to_jsonl,
    read_jsonl,
)
from .inspect import summarize_artifact
from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "RunArtifact",
    "current_git_sha",
    "CoreAttribution",
    "RunAttribution",
    "attribution_from_snapshot",
    "MANIFEST_NAME",
    "EVENTS_NAME",
    "TRACE_NAME",
    "PROM_NAME",
    "Event",
    "EventTracer",
    "NULL_TRACER",
    "EV_WIRE_DROP",
    "EV_RING_DROP",
    "EV_PCIE_DROP",
    "EV_SERVICE",
    "EV_SPRAY",
    "EV_HISTORY_DEPTH",
    "EV_FAST_FORWARD",
    "EV_RECOVERY_START",
    "EV_RECOVERY_FINISH",
    "EV_RECOVERY_BLOCKED",
    "EV_LOCK_WAIT",
    "EV_MLFFR_PROBE",
    "EV_RUN_SUMMARY",
    "events_to_jsonl",
    "read_jsonl",
    "events_to_chrome_trace",
    "chrome_trace_dict",
    "summarize_artifact",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

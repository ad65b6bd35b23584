"""Run artifacts: one directory per measured run, reloadable later.

An artifact directory holds everything needed to re-interpret a run
without re-running it:

* ``manifest.json`` — command, config, git SHA, creation time, metrics
  snapshot, per-event-type counts, and the names of the sibling files;
* ``events.jsonl``  — the retained event ring, sorted by timestamp;
* ``trace.json``    — the same events in Chrome ``trace_event`` format
  (one track per simulated core — open in chrome://tracing or Perfetto);
* ``metrics.prom``  — the registry in Prometheus text format.

:class:`Telemetry` bundles the registry + tracer that the layers write
into and knows how to produce the artifact.  The disabled singleton
:data:`NULL_TELEMETRY` makes "no telemetry" the zero-cost default.
"""

from __future__ import annotations

import datetime
import json
import os
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from .events import EventTracer
from .exporters import events_to_chrome_trace, events_to_jsonl
from .metrics import MetricsRegistry

__all__ = [
    "MANIFEST_NAME",
    "EVENTS_NAME",
    "TRACE_NAME",
    "PROM_NAME",
    "EventLogError",
    "RunArtifact",
    "Telemetry",
    "NULL_TELEMETRY",
    "current_git_sha",
]

MANIFEST_NAME = "manifest.json"
EVENTS_NAME = "events.jsonl"
TRACE_NAME = "trace.json"
PROM_NAME = "metrics.prom"


#: ``current_git_sha`` results per working directory, for this process.
_GIT_SHAS: Dict[str, str] = {}


def current_git_sha(cwd: Optional[Union[str, Path]] = None) -> str:
    """The repo HEAD SHA, or "unknown" outside a git checkout.

    Read once per process and directory (``cwd``, default the process's
    working directory): every artifact written by one process shares it.
    """
    try:
        key = os.path.abspath(str(cwd) if cwd else os.getcwd())
    except OSError:  # the working directory was removed
        return "unknown"
    sha = _GIT_SHAS.get(key)
    if sha is None:
        sha = _GIT_SHAS[key] = _read_git_sha(key)
    return sha


def _read_git_sha(cwd: str) -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


class EventLogError(ValueError):
    """An artifact's event log disagrees with its manifest."""


@dataclass
class RunArtifact:
    """The manifest half of an artifact directory (JSON-safe throughout)."""

    command: str
    config: dict
    git_sha: str = "unknown"
    created_utc: str = ""
    metrics: dict = field(default_factory=dict)
    event_type_counts: dict = field(default_factory=dict)
    events_retained: int = 0
    events_emitted: int = 0
    num_cores: Optional[int] = None
    files: dict = field(default_factory=dict)
    #: SLO section (repro.obs.slo schema); None for fault-free runs and
    #: for artifacts written before the section existed.
    slo: Optional[dict] = None

    def to_dict(self) -> dict:
        d = {
            "schema": "scr-repro/run-artifact/v1",
            "command": self.command,
            "config": self.config,
            "git_sha": self.git_sha,
            "created_utc": self.created_utc,
            "metrics": self.metrics,
            "event_type_counts": self.event_type_counts,
            "events_retained": self.events_retained,
            "events_emitted": self.events_emitted,
            "num_cores": self.num_cores,
            "files": self.files,
        }
        if self.slo is not None:
            d["slo"] = self.slo
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "RunArtifact":
        return cls(
            command=data.get("command", ""),
            config=data.get("config", {}),
            git_sha=data.get("git_sha", "unknown"),
            created_utc=data.get("created_utc", ""),
            metrics=data.get("metrics", {}),
            event_type_counts=data.get("event_type_counts", {}),
            events_retained=data.get("events_retained", 0),
            events_emitted=data.get("events_emitted", 0),
            num_cores=data.get("num_cores"),
            files=data.get("files", {}),
            slo=data.get("slo"),
        )

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "RunArtifact":
        path = Path(directory)
        if path.is_dir():
            path = path / MANIFEST_NAME
        with path.open() as fh:
            return cls.from_dict(json.load(fh))

    def read_events(self, directory: Union[str, Path]) -> List[dict]:
        """The event log's records, checked against this manifest.

        Raises :class:`EventLogError` when a line is not a JSON object or
        the log holds a different number of events than ``events_retained``:
        a truncated log would otherwise read as a smaller, wrong run.  A
        missing log reads as empty, which is correct only when the
        manifest retained no events.  Like :meth:`load`, ``directory`` may
        also be the manifest's own path.
        """
        directory = Path(directory)
        if not directory.is_dir():
            directory = directory.parent
        path = directory / str(self.files.get("events", EVENTS_NAME))
        rows: List[dict] = []
        try:
            with path.open() as fh:
                for lineno, line in enumerate(fh, 1):
                    if not line.strip():
                        continue
                    try:
                        row = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise EventLogError(
                            f"{path}: line {lineno} is not valid JSON "
                            f"({exc.msg})") from None
                    if not isinstance(row, dict):
                        raise EventLogError(
                            f"{path}: line {lineno} is not a JSON object")
                    rows.append(row)
        except FileNotFoundError:
            pass
        if len(rows) != self.events_retained:
            raise EventLogError(
                f"{path}: holds {len(rows)} events but the manifest "
                f"retained {self.events_retained} (truncated log?)")
        return rows


class Telemetry:
    """The per-run bundle: one metrics registry + one event tracer.

    Layers take a :class:`Telemetry` (or just its ``tracer``) and emit into
    it; at the end of the run :meth:`write_artifact` snapshots everything
    into a directory.  A disabled instance hands out no-op instruments and
    a disabled tracer, so threading it through costs nothing.
    """

    def __init__(self, enabled: bool = True, ring_capacity: int = 100_000) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry(enabled=enabled)
        self.tracer = EventTracer(capacity=ring_capacity if enabled else 0,
                                  enabled=enabled)
        #: Optional :class:`repro.obs.spans.SpanEmitter` attached by the
        #: CLI's ``--trace-sample``; None keeps telemetry obs-free.
        self.spans = None

    def clear(self) -> None:
        self.registry = MetricsRegistry(enabled=self.enabled)
        self.tracer.clear()

    def write_artifact(
        self,
        directory: Union[str, Path],
        command: str,
        config: Optional[dict] = None,
        extra_metrics: Optional[dict] = None,
        num_cores: Optional[int] = None,
    ) -> RunArtifact:
        """Snapshot this run into ``directory`` and return the manifest.

        ``extra_metrics`` merges layer-provided snapshots (for example
        ``{"counters": system_counters.snapshot()}``) alongside the
        registry's own ``{"registry": ...}`` section.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        events = self.tracer.events()
        events_to_jsonl(events, directory / EVENTS_NAME)
        events_to_chrome_trace(events, directory / TRACE_NAME,
                               num_cores=num_cores)
        (directory / PROM_NAME).write_text(self.registry.to_prometheus())
        metrics = {"registry": self.registry.snapshot()}
        if extra_metrics:
            metrics.update(extra_metrics)
        slo = None
        if any(k.startswith(("fault.", "recovery."))
               for k in self.tracer.type_counts):
            # Lazy import: telemetry must not depend on repro.obs at module
            # load (obs.spans imports telemetry.events).
            from ..obs.slo import compute_slo
            slo = compute_slo(e.to_dict() for e in events)
        artifact = RunArtifact(
            command=command,
            config=config or {},
            git_sha=current_git_sha(),
            created_utc=datetime.datetime.now(datetime.timezone.utc).isoformat(),
            metrics=metrics,
            event_type_counts=dict(self.tracer.type_counts),
            events_retained=len(self.tracer),
            events_emitted=self.tracer.emitted,
            num_cores=num_cores,
            files={
                "events": EVENTS_NAME,
                "trace": TRACE_NAME,
                "prometheus": PROM_NAME,
            },
            slo=slo,
        )
        with (directory / MANIFEST_NAME).open("w") as fh:
            json.dump(artifact.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return artifact


#: Shared disabled bundle — the default everywhere telemetry is optional.
NULL_TELEMETRY = Telemetry(enabled=False)

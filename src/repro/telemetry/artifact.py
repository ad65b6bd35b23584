"""Run artifacts: one directory per measured run, reloadable later.

An artifact directory holds everything needed to re-interpret a run
without re-running it:

* ``manifest.json`` — command, config, git SHA, creation time, metrics
  snapshot, per-event-type counts, and the names of the sibling files;
* ``events.jsonl``  — the retained event ring, sorted by timestamp.

Each fact is stored once; other views derive from these two files on
demand.  The Chrome ``trace_event`` document (one track per simulated
core, for chrome://tracing or Perfetto) is
``chrome_trace_dict(art.read_events(dir), num_cores=art.num_cores)``, and
the Prometheus text is ``to_prometheus()`` of a fresh
:class:`MetricsRegistry` after ``merge_snapshot(art.metrics["registry"])``
(without ``# HELP`` lines: the snapshot keeps no help text).  Older
artifacts that also list ``trace``/``prometheus`` files load the same.

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
from typing import Any, Callable, Dict, List, Optional, TypeVar, Union

from .events import EventTracer
from .exporters import events_to_jsonl
from .metrics import MetricsRegistry

__all__ = [
    "MANIFEST_NAME",
    "EVENTS_NAME",
    "EventLogError",
    "JSON_NUMBER",
    "RunArtifact",
    "Telemetry",
    "NULL_TELEMETRY",
    "current_git_sha",
    "json_field",
    "json_typed",
    "load_json",
]

MANIFEST_NAME = "manifest.json"
EVENTS_NAME = "events.jsonl"


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


#: JSON type names for the shape check's messages.
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string",
               int: "a number", float: "a number", bool: "a boolean",
               type(None): "null"}
JSON_NUMBER = (int, float)
_T = TypeVar("_T")


def json_typed(value: Any, kinds: tuple, where: str = "") -> Any:
    """``value`` if it has one of the JSON ``kinds``; otherwise a
    ValueError naming the field ``where`` (empty: the top level)."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        expected = " or ".join(sorted({_JSON_TYPES[k] for k in kinds}))
        field_name = f"field {where!r}" if where else "top level"
        raise ValueError(
            f"{field_name} must be {expected}, "
            f"got {_JSON_TYPES.get(type(value), type(value).__name__)}"
        )
    return value


def json_field(mapping: dict, key: str, default: Any, kinds: tuple,
               where: str = "") -> Any:
    """``mapping[key]`` (``default`` when absent), shape-checked by
    :func:`json_typed` as field ``where.key``."""
    return json_typed(mapping.get(key, default), kinds,
                      f"{where}.{key}" if where else key)


def load_json(path: Path, from_dict: Callable[[Any], _T]) -> _T:
    """``from_dict`` of the JSON file at ``path``; malformed JSON or shape
    raises ValueError naming the file (and the field)."""
    with path.open(encoding="utf-8") as fh:
        try:
            return from_dict(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


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
        """Rebuild a manifest; raises ValueError naming the first field
        whose JSON type does not fit the run-artifact/v1 shape."""
        json_typed(data, (dict,))
        return cls(
            command=json_field(data, "command", "", (str,)),
            config=json_field(data, "config", {}, (dict,)),
            git_sha=json_field(data, "git_sha", "unknown", (str,)),
            created_utc=json_field(data, "created_utc", "", (str,)),
            metrics=json_field(data, "metrics", {}, (dict,)),
            event_type_counts=json_field(data, "event_type_counts", {}, (dict,)),
            events_retained=json_field(data, "events_retained", 0, (int,)),
            events_emitted=json_field(data, "events_emitted", 0, (int,)),
            num_cores=json_field(data, "num_cores", None, (int, type(None))),
            files=json_field(data, "files", {}, (dict,)),
            slo=json_field(data, "slo", None, (dict, type(None))),
        )

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "RunArtifact":
        """Read ``directory``'s manifest (or the manifest path itself)."""
        path = Path(directory)
        return load_json(path / MANIFEST_NAME if path.is_dir() else path,
                         cls.from_dict)

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
            files={"events": EVENTS_NAME},
            slo=slo,
        )
        with (directory / MANIFEST_NAME).open("w") as fh:
            json.dump(artifact.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return artifact


#: Shared disabled bundle — the default everywhere telemetry is optional.
NULL_TELEMETRY = Telemetry(enabled=False)

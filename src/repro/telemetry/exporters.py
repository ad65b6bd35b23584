"""Event-log exporters: JSONL and the Chrome ``trace_event`` format.

* **JSONL** — one JSON object per line, sorted by ``ts_ns``; greppable and
  trivially loadable (`pandas.read_json(lines=True)`).  A run artifact's
  ``events.jsonl`` is the one stored copy of its events.
* **Chrome trace** — the ``chrome://tracing`` / Perfetto JSON format with
  one track (thread) per simulated core, so a Figure 6 run opens as a
  per-core timeline: service spans as complete ("X") events, drops and
  decisions as instants ("i").  Events not tied to a core (MLFFR probes,
  run summaries) land on a dedicated "system" track.  When the run has
  SCR spray decisions, those move to their own "sequencer" track and
  each dispatched packet gets a flow arrow (``ph: "s"``/``"f"``) from
  the spray to the receiving core's service — cross-core causality
  renders in Perfetto instead of being two unrelated slices.  It is
  derived on demand, from live events or from an artifact's event log.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Union

from .events import Event

__all__ = [
    "events_to_jsonl",
    "chrome_trace_dict",
]

#: tid used for events with no core attribution.
SYSTEM_TRACK = "system"

#: tid used for SCR spray decisions (only present when sprays exist).
SEQUENCER_TRACK = "sequencer"

#: kinds linked by dispatch flow arrows: spray (source) -> service (sink).
_FLOW_SOURCE_KIND = "scr.spray"
_FLOW_SINK_KIND = "core.service"

#: An event row's own keys (``Event.to_dict``); every other key is a field.
_ROW_KEYS = frozenset(("ts_ns", "kind", "core", "dur_ns"))

#: Lines per JSONL file write, which bounds the encoded text in memory.
_BATCH = 4096

#: The JSONL byte format: ``json.dumps`` defaults plus sorted keys, from
#: one C encoder built once.
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True)


def _batches(items: Iterable, size: int = _BATCH) -> Iterator[list]:
    it = iter(items)
    while True:
        batch = list(islice(it, size))
        if not batch:
            return
        yield batch


def events_to_jsonl(events: Iterable[Event], path: Union[str, Path]) -> Path:
    """Write events to ``path`` as JSON Lines, sorted by timestamp."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        encode = _JSONL_ENCODER.encode
        for batch in _batches(sorted(events, key=lambda e: e.ts_ns)):
            fh.write("".join(encode(e.to_dict()) + "\n" for e in batch))
    return path


def _chrome_records(rows: List[dict], num_cores: Optional[int]
                    ) -> Iterator[dict]:
    """The ``traceEvents`` records in document order: thread-name headers,
    one record per row, then the dispatch flows."""
    tids = {r["core"] for r in rows if isinstance(r.get("core"), int)}
    tids.update(range(num_cores or 0))
    yield _thread_name(SYSTEM_TRACK, SYSTEM_TRACK)
    if any(r["kind"] == _FLOW_SOURCE_KIND for r in rows):
        yield _thread_name(SEQUENCER_TRACK, SEQUENCER_TRACK)
    for tid in sorted(tids):
        yield _thread_name(tid, f"core {tid}")
    #: packet index -> spray ts / first service (ts, tid).
    sprays: dict = {}
    sinks: dict = {}
    for row in rows:
        kind = row["kind"]
        ts = row["ts_ns"] / 1e3
        if kind == _FLOW_SOURCE_KIND:
            # Spray decisions happen at the sequencer, not on the core
            # they target; give them their own track so the flow arrow
            # visibly crosses tracks.
            tid = SEQUENCER_TRACK
        else:
            tid = row.get("core", SYSTEM_TRACK)
        record = {"name": kind, "cat": kind.split(".", 1)[0], "ts": ts,
                  "pid": 0, "tid": tid}
        fields = {k: v for k, v in row.items() if k not in _ROW_KEYS}
        if fields:
            record["args"] = fields
        dur_ns = row.get("dur_ns")
        if dur_ns is not None:
            record["ph"] = "X"
            record["dur"] = max(dur_ns, 1.0) / 1e3
        else:
            record["ph"] = "i"
            record["s"] = "t"  # thread-scoped instant
        yield record
        index = fields.get("index")
        if index is not None:
            if kind == _FLOW_SOURCE_KIND:
                sprays.setdefault(index, ts)
            elif kind == _FLOW_SINK_KIND:
                sinks.setdefault(index, (ts, tid))
    yield from _dispatch_flows(sprays, sinks)


def chrome_trace_dict(
    events: Iterable[Union[Event, dict]], num_cores: Optional[int] = None
) -> dict:
    """Build the Chrome ``trace_event`` JSON object for ``events``.

    ``events`` are :class:`Event` objects or the rows of their JSONL form
    (what ``RunArtifact.read_events`` returns); both give the same
    document once encoded.  ``num_cores`` forces one named track per
    simulated core 0..n-1 even if a core emitted nothing (an idle core is
    itself a finding).  Timestamps convert to the format's microseconds;
    durations below 1 ns are floored to keep spans visible.
    """
    rows = sorted((e.to_dict() if isinstance(e, Event) else e
                   for e in events), key=lambda r: r["ts_ns"])
    return {"traceEvents": list(_chrome_records(rows, num_cores)),
            "displayTimeUnit": "ns",
            "otherData": {"producer": "repro.telemetry"}}


def _thread_name(tid, name: str) -> dict:
    return {
        "name": "thread_name",
        "ph": "M",
        "pid": 0,
        "tid": tid,
        "args": {"name": name},
    }


def _dispatch_flows(sprays: dict, sinks: dict) -> Iterator[dict]:
    """Flow start/finish pairs: sequencer spray -> receiving core's service.

    Perfetto draws these as arrows across tracks; the ``id`` is the packet
    index, shared by both halves.  Only packets with both halves retained
    in the ring produce an arrow.
    """
    for index in sorted(sprays.keys() & sinks.keys(), key=repr):
        spray_ts = sprays[index]
        sink_ts, sink_tid = sinks[index]
        common = {"name": "scr.dispatch", "cat": "flow", "pid": 0, "id": index}
        yield dict(common, ph="s", ts=spray_ts, tid=SEQUENCER_TRACK)
        # bp="e": bind the arrowhead to the enclosing slice (the service).
        yield dict(common, ph="f", bp="e", ts=sink_ts, tid=sink_tid)

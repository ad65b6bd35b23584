"""Event-log exporters: JSONL and the Chrome ``trace_event`` format.

* **JSONL** — one JSON object per line, sorted by ``ts_ns``; greppable and
  trivially loadable (`pandas.read_json(lines=True)`).
* **Chrome trace** — the ``chrome://tracing`` / Perfetto JSON format with
  one track (thread) per simulated core, so a Figure 6 run opens as a
  per-core timeline: service spans as complete ("X") events, drops and
  decisions as instants ("i").  Events not tied to a core (MLFFR probes,
  run summaries) land on a dedicated "system" track.  When the run has
  SCR spray decisions, those move to their own "sequencer" track and
  each dispatched packet gets a flow arrow (``ph: "s"``/``"f"``) from
  the spray to the receiving core's service — cross-core causality
  renders in Perfetto instead of being two unrelated slices.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Union

from .events import Event

__all__ = [
    "events_to_jsonl",
    "read_jsonl",
    "events_to_chrome_trace",
    "chrome_trace_dict",
]

#: tid used for events with no core attribution.
SYSTEM_TRACK = "system"

#: tid used for SCR spray decisions (only present when sprays exist).
SEQUENCER_TRACK = "sequencer"

#: kinds linked by dispatch flow arrows: spray (source) -> service (sink).
_FLOW_SOURCE_KIND = "scr.spray"
_FLOW_SINK_KIND = "core.service"

#: Records per trace encoder call and per file write.  One C-encoder call
#: per trace batch keeps Python out of the per-record work (``json.dump``
#: to a file always takes the pure-Python encoder), and the batch bounds
#: the encoded text in memory.
_BATCH = 4096

#: The byte format of both files: ``json.dumps`` defaults, plus sorted keys
#: for the JSONL lines.  One encoder each, built once.
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True)
_TRACE_ENCODER = json.JSONEncoder()


def _trace_tail() -> dict:
    """The trace document's keys after ``traceEvents``."""
    return {"displayTimeUnit": "ns",
            "otherData": {"producer": "repro.telemetry"}}


def _by_time(events: Iterable[Event]) -> List[Event]:
    return sorted(events, key=lambda e: e.ts_ns)


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
        for batch in _batches(_by_time(events)):
            fh.write("".join(encode(e.to_dict()) + "\n" for e in batch))
    return path


def read_jsonl(path: Union[str, Path]) -> Iterator[dict]:
    """Yield the event dicts back out of a JSONL file."""
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def _chrome_records(
    events: Iterable[Event], num_cores: Optional[int]
) -> Iterator[dict]:
    """The ``traceEvents`` records in file order, built as they are consumed:
    thread-name headers, one record per event, then the dispatch flows."""
    ordered = _by_time(events)
    tids = {e.core for e in ordered if isinstance(e.core, int)}
    tids.update(range(num_cores or 0))
    yield _thread_name(SYSTEM_TRACK, SYSTEM_TRACK)
    if any(e.kind == _FLOW_SOURCE_KIND for e in ordered):
        yield _thread_name(SEQUENCER_TRACK, SEQUENCER_TRACK)
    for tid in sorted(tids):
        yield _thread_name(tid, f"core {tid}")
    #: packet index -> spray ts / first service (ts, tid).
    sprays: dict = {}
    sinks: dict = {}
    for e in ordered:
        kind = e.kind
        ts = e.ts_ns / 1e3
        if kind == _FLOW_SOURCE_KIND:
            # Spray decisions happen at the sequencer, not on the core
            # they target; give them their own track so the flow arrow
            # visibly crosses tracks.
            tid = SEQUENCER_TRACK
        else:
            tid = e.core if e.core is not None else SYSTEM_TRACK
        record = {"name": kind, "cat": kind.split(".", 1)[0], "ts": ts,
                  "pid": 0, "tid": tid}
        fields = e.fields
        if fields:
            record["args"] = fields
        if e.dur_ns is not None:
            record["ph"] = "X"
            record["dur"] = max(e.dur_ns, 1.0) / 1e3
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
    events: Iterable[Event], num_cores: Optional[int] = None
) -> dict:
    """Build the Chrome ``trace_event`` JSON object for ``events``.

    ``num_cores`` forces one named track per simulated core 0..n-1 even if
    a core emitted nothing (an idle core is itself a finding).  Timestamps
    convert to the format's microseconds; durations below 1 ns are floored
    to keep spans visible.
    """
    return {"traceEvents": list(_chrome_records(events, num_cores)),
            **_trace_tail()}


def events_to_chrome_trace(
    events: Iterable[Event],
    path: Union[str, Path],
    num_cores: Optional[int] = None,
) -> Path:
    """Write a ``chrome://tracing``-loadable JSON file; returns the path.

    The bytes are exactly ``json.dump(chrome_trace_dict(...))``'s, but the
    records stream through the C encoder in batches instead of being held
    as one document.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    encode = _TRACE_ENCODER.encode
    with path.open("w") as fh:
        fh.write('{"traceEvents": [')
        sep = ""
        for batch in _batches(_chrome_records(events, num_cores)):
            # encode(list) is "[r0, r1, ...]": strip the brackets and join
            # batches with the encoder's own item separator.
            fh.write(sep + encode(batch)[1:-1])
            sep = ", "
        fh.write("], " + encode(_trace_tail())[1:])
    return path


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

"""Exporter round-trips: JSONL and the Chrome trace_event format."""

import json

import pytest

from repro.telemetry import Telemetry, exporters
from repro.telemetry.events import EV_MLFFR_PROBE, EV_RING_DROP, EV_SERVICE, EventTracer
from repro.telemetry.exporters import (
    SEQUENCER_TRACK,
    SYSTEM_TRACK,
    chrome_trace_dict,
    events_to_jsonl,
)
from tests.telemetry.derived import as_parsed, chrome_doc


def read_rows(path):
    """The JSONL file's lines as parsed objects."""
    return [json.loads(line) for line in path.read_text().splitlines()]


def sample_tracer():
    tr = EventTracer()
    tr.emit(EV_SERVICE, ts_ns=100.0, core=0, dur_ns=50.0, index=1)
    tr.emit(EV_RING_DROP, ts_ns=90.0, core=1, depth=256)
    tr.emit(EV_SERVICE, ts_ns=200.0, core=1, dur_ns=60.0, index=2)
    tr.emit(EV_MLFFR_PROBE, ts_ns=300.0, rate_pps=1e6, loss=0.0)
    return tr


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        tr = sample_tracer()
        path = events_to_jsonl(tr.events(), tmp_path / "ev.jsonl")
        rows = read_rows(path)
        assert len(rows) == 4
        assert {r["kind"] for r in rows} == {
            EV_SERVICE, EV_RING_DROP, EV_MLFFR_PROBE
        }
        # Custom fields flatten into the record.
        drop = next(r for r in rows if r["kind"] == EV_RING_DROP)
        assert drop["depth"] == 256 and drop["core"] == 1

    def test_every_line_is_valid_json(self, tmp_path):
        path = events_to_jsonl(sample_tracer().events(), tmp_path / "ev.jsonl")
        for line in path.read_text().splitlines():
            json.loads(line)  # raises on malformed output

    def test_sorted_by_timestamp(self, tmp_path):
        # The ring drop was emitted second but timestamped earliest.
        path = events_to_jsonl(sample_tracer().events(), tmp_path / "ev.jsonl")
        ts = [r["ts_ns"] for r in read_rows(path)]
        assert ts == sorted(ts)
        assert ts[0] == 90.0


class TestChromeTrace:
    def test_file_is_valid_json(self, tmp_path):
        tele = Telemetry()
        tele.tracer = sample_tracer()
        tele.write_artifact(tmp_path, command="x", num_cores=2)
        doc = chrome_doc(tmp_path)  # parsed back from its JSON text
        assert "traceEvents" in doc
        assert doc == as_parsed(chrome_trace_dict(tele.tracer.events(),
                                                  num_cores=2))

    def test_one_track_per_core(self):
        doc = chrome_trace_dict(sample_tracer().events(), num_cores=4)
        names = {
            r["tid"]: r["args"]["name"]
            for r in doc["traceEvents"]
            if r["ph"] == "M" and r["name"] == "thread_name"
        }
        # One named track per simulated core plus the system track --
        # including idle cores 2 and 3 that emitted nothing.
        assert names == {
            SYSTEM_TRACK: "system",
            0: "core 0", 1: "core 1", 2: "core 2", 3: "core 3",
        }

    def test_spans_and_instants(self):
        doc = chrome_trace_dict(sample_tracer().events())
        body = [r for r in doc["traceEvents"] if r["ph"] in ("X", "i")]
        spans = [r for r in body if r["ph"] == "X"]
        instants = [r for r in body if r["ph"] == "i"]
        assert len(spans) == 2 and len(instants) == 2
        # ts/dur are microseconds in the trace_event format.
        svc = next(r for r in spans if r["tid"] == 0)
        assert svc["ts"] == 0.1 and svc["dur"] == 0.05

    def test_uncored_events_on_system_track(self):
        doc = chrome_trace_dict(sample_tracer().events())
        probe = next(
            r for r in doc["traceEvents"] if r["name"] == EV_MLFFR_PROBE
        )
        assert probe["tid"] == SYSTEM_TRACK

    def test_category_is_kind_prefix(self):
        doc = chrome_trace_dict(sample_tracer().events())
        cats = {r["name"]: r["cat"] for r in doc["traceEvents"] if "cat" in r}
        assert cats[EV_RING_DROP] == "nic"
        assert cats[EV_SERVICE] == "core"


def flow_tracer():
    tr = EventTracer()
    tr.emit("scr.spray", ts_ns=100.0, index=1, core=2)
    tr.emit(EV_SERVICE, ts_ns=150.0, core=2, dur_ns=40.0, index=1)
    tr.emit("scr.spray", ts_ns=200.0, index=2, core=0)  # dropped: no service
    tr.emit(EV_SERVICE, ts_ns=250.0, core=1, dur_ns=40.0, index=7)  # no spray
    return tr


class TestDispatchFlows:
    def test_spray_renders_on_the_sequencer_track(self):
        doc = chrome_trace_dict(flow_tracer().events())
        sprays = [r for r in doc["traceEvents"] if r["name"] == "scr.spray"]
        assert sprays and all(r["tid"] == SEQUENCER_TRACK for r in sprays)
        names = {
            r["tid"]: r["args"]["name"]
            for r in doc["traceEvents"]
            if r["ph"] == "M" and r["name"] == "thread_name"
        }
        assert names[SEQUENCER_TRACK] == "sequencer"

    def test_flow_pair_links_spray_to_service(self):
        doc = chrome_trace_dict(flow_tracer().events())
        flows = [r for r in doc["traceEvents"] if r.get("cat") == "flow"]
        assert len(flows) == 2  # one start + one finish, for index 1 only
        start = next(r for r in flows if r["ph"] == "s")
        finish = next(r for r in flows if r["ph"] == "f")
        assert start["id"] == finish["id"] == 1
        assert start["name"] == finish["name"] == "scr.dispatch"
        assert start["tid"] == SEQUENCER_TRACK
        # The arrowhead binds to the enclosing service slice on core 2.
        assert finish["tid"] == 2 and finish["bp"] == "e"
        assert start["ts"] == 0.1 and finish["ts"] == 0.15

    def test_unmatched_halves_produce_no_arrow(self):
        tr = EventTracer()
        tr.emit("scr.spray", ts_ns=100.0, index=5, core=0)
        tr.emit(EV_SERVICE, ts_ns=150.0, core=0, dur_ns=10.0, index=6)
        doc = chrome_trace_dict(tr.events())
        assert not [r for r in doc["traceEvents"] if r.get("cat") == "flow"]

    def test_no_sequencer_track_without_sprays(self):
        doc = chrome_trace_dict(sample_tracer().events())
        tids = {r["tid"] for r in doc["traceEvents"]}
        assert SEQUENCER_TRACK not in tids


# -- the stored log: byte identity, and the trace derived from it ---------------


def _reference_jsonl(events):
    """The JSONL bytes as one sorted-keys ``json.dumps`` per event."""
    ordered = sorted(events, key=lambda e: e.ts_ns)
    return "".join(json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in ordered)


def _uncored(n):
    # With no cores the trace has exactly one header record (the system
    # track), so n events make n + 1 records.
    tr = EventTracer(capacity=n + 1)
    for i in range(n):
        tr.emit(EV_MLFFR_PROBE, ts_ns=float(n - i), rate_pps=1e6 + i, loss=0.0)
    return tr.events()


def _mixed():
    tr = EventTracer()
    for i in range(40):
        core = None if i % 5 == 0 else i % 3
        dur = None if i % 2 else 10.0 + i
        tr.emit("scr.spray", ts_ns=10.0 * i, index=i, core=(i + 1) % 3)
        tr.emit(EV_SERVICE, ts_ns=10.0 * i + 4.0, core=core, dur_ns=dur,
                index=i, depth=[i, i + 1], note=None)
    tr.emit(EV_RING_DROP, ts_ns=5.5, core=2, depth=256, cause="ring")
    return tr.events()


def _non_ascii():
    tr = EventTracer()
    tr.emit("fault.drop", ts_ns=1.0, core=0, label="κ-core ✓", path="naïve/日本")
    tr.emit("sim.run", ts_ns=2.0, note='quote " and \\ and \n newline')
    tr.emit("mlffr.probe", ts_ns=3.0, rate_pps=0.1 + 0.2, loss=1e-300)
    return tr.events()


def _nul_characters():
    tr = EventTracer()
    tr.emit("sim.run", ts_ns=1.0, tags=["a", "\x00", "b"])
    tr.emit("sim.run", ts_ns=2.0, tags=["\x00"], note="\x00")
    return tr.events()


def _evicted():
    tr = EventTracer(capacity=50)
    for i in range(120):
        tr.emit(EV_SERVICE, ts_ns=float(i), core=i % 4, dur_ns=0.25, index=i)
    assert tr.dropped == 70
    return tr.events()


def _one_batch_of_records():
    events = _uncored(exporters._BATCH - 1)
    assert len(chrome_trace_dict(events)["traceEvents"]) == exporters._BATCH
    return events


EVENT_SETS = {
    "empty": lambda: [],
    "one": lambda: _uncored(1),
    "one-batch-of-records": _one_batch_of_records,
    "one-batch-of-events": lambda: _uncored(exporters._BATCH),
    "one-batch-plus-one": lambda: _uncored(exporters._BATCH + 1),
    "flows-cores-instants-spans": _mixed,
    "non-ascii": _non_ascii,
    "nul-characters": _nul_characters,
    "evicted-ring": _evicted,
}


@pytest.mark.parametrize("num_cores", [None, 4])
@pytest.mark.parametrize("name", sorted(EVENT_SETS))
def test_streamed_writers_match_one_document_encoding(tmp_path, name, num_cores):
    """The streamed log holds exactly the one-document encoding, and the
    Chrome trace derived from its rows is the one built from the live
    events."""
    events = EVENT_SETS[name]()
    jsonl = events_to_jsonl(events, tmp_path / "events.jsonl")
    assert jsonl.read_bytes() == _reference_jsonl(events).encode()
    assert (as_parsed(chrome_trace_dict(read_rows(jsonl), num_cores=num_cores))
            == as_parsed(chrome_trace_dict(events, num_cores=num_cores)))


"""Event tracer: ring retention, whole-run counts, no-op mode."""

import random

import numpy as np

from repro.telemetry.events import (
    EV_FAULT_DROP,
    EV_RING_DROP,
    EV_SERVICE,
    EV_SPRAY,
    NULL_TRACER,
    Event,
    EventTracer,
    RecordBatch,
)


def test_emit_and_read_back():
    tr = EventTracer()
    tr.emit(EV_SPRAY, ts_ns=10.0, core=2, seq=7)
    (ev,) = tr.events()
    assert ev.kind == EV_SPRAY
    assert ev.core == 2
    assert ev.fields["seq"] == 7
    d = ev.to_dict()
    assert d["ts_ns"] == 10.0 and d["seq"] == 7


def test_ring_bounds_retention_but_not_counts():
    tr = EventTracer(capacity=10)
    for i in range(100):
        tr.emit(EV_RING_DROP, ts_ns=float(i), core=0)
    assert len(tr.events()) == 10
    assert tr.emitted == 100
    assert tr.dropped == 90
    # Whole-run type counts are independent of ring retention.
    assert tr.type_counts[EV_RING_DROP] == 100


def test_virtual_clock_ratchets():
    tr = EventTracer()
    tr.emit(EV_SPRAY)                 # tick 1
    tr.emit(EV_SPRAY, ts_ns=500.0)    # real timestamp advances the clock
    tr.emit(EV_SPRAY)                 # tick 501
    ts = [e.ts_ns for e in tr.events()]
    assert ts == sorted(ts)
    assert ts[-1] > 500.0


def test_disabled_tracer_retains_nothing():
    tr = EventTracer(enabled=False)
    for _ in range(50):
        tr.emit(EV_SPRAY, core=1)
    assert tr.events() == []
    assert tr.emitted == 0
    assert tr.type_counts == {}


def test_null_tracer_is_disabled():
    assert not NULL_TRACER.enabled
    NULL_TRACER.emit(EV_SPRAY)  # harmless
    assert NULL_TRACER.events() == []


def test_clear():
    tr = EventTracer()
    tr.emit(EV_SPRAY, core=0)
    tr.clear()
    assert tr.events() == [] and tr.emitted == 0


def test_event_slots():
    ev = Event(1.0, EV_SPRAY, 0, None, {})
    assert not hasattr(ev, "__dict__")


def test_count_and_emit_sampled_keep_counts_exact():
    tr = EventTracer()
    tr.count(EV_SERVICE, 3)
    tr.emit_sampled(False, EV_SERVICE, 5.0, core=0, index=1)
    tr.emit_sampled(True, EV_SERVICE, 6.0, core=0, index=2)
    assert [e.fields["index"] for e in tr.events()] == [2]
    assert tr.type_counts == {EV_SERVICE: 5}
    assert tr.emitted == 5
    assert tr.dropped == 4
    NULL_TRACER.count(EV_SERVICE, 9)
    assert NULL_TRACER.emitted == 0


def _staged_run(tr):
    tr.stage()
    tr.emit(EV_SERVICE, ts_ns=20.0, core=1, index=4)
    tr.emit("span.core_pop", ts_ns=20.0, core=1, index=4)
    tr.emit(EV_SPRAY, ts_ns=10.0, core=1, index=4)
    tr.emit(EV_FAULT_DROP, ts_ns=15.0, core=0, index=3)  # never staged
    tr.emit("span.nic_arrival", ts_ns=10.0, index=4)
    tr.emit(EV_SERVICE, ts_ns=20.0, core=0, index=2)
    tr.release()


def test_release_orders_staged_records_canonically():
    tr = EventTracer()
    _staged_run(tr)
    assert [(e.kind, e.fields["index"]) for e in tr.events()] == [
        (EV_FAULT_DROP, 3),
        ("span.nic_arrival", 4), (EV_SPRAY, 4),
        (EV_SERVICE, 2),
        ("span.core_pop", 4), (EV_SERVICE, 4),
    ]
    assert tr.emitted == 6
    tr.emit("mlffr.probe")
    assert tr.events()[-1].ts_ns == 21.0  # the tick saw released stamps


def test_release_without_retain_only_counts():
    tr = EventTracer()
    tr.hold()
    _staged_run(tr)
    tr.settle(False)
    tr.emit("mlffr.probe")
    tr.end_hold()
    assert [e.kind for e in tr.events()] == [EV_FAULT_DROP, "mlffr.probe"]
    assert tr.type_counts == {EV_SERVICE: 2, "span.core_pop": 1,
                              EV_SPRAY: 1, EV_FAULT_DROP: 1,
                              "span.nic_arrival": 1, "mlffr.probe": 1}
    assert tr.emitted == 7
    assert tr.events()[-1].ts_ns == 16.0  # discarded stamps never count


def test_hold_keeps_one_batch_with_every_count_and_tick():
    """Inside a retention scope only the last kept batch reaches the ring,
    once, at the end; counts and tick stamps equal retaining every kept
    batch as it is released."""
    scoped, plain = EventTracer(), EventTracer()
    scoped.hold()
    for keep, shift in ((True, 0.0), (False, 100.0), (True, 5.0)):
        for tr in (scoped, plain):
            tr.stage()
            tr.emit(EV_SERVICE, ts_ns=20.0 + shift, core=1, index=4)
            tr.emit("span.nic_arrival", ts_ns=10.0 + shift, index=4)
            tr.emit(EV_FAULT_DROP, ts_ns=15.0, core=0, index=3)
        plain.hold()  # a scope per batch: retained as it is settled
        for tr in (scoped, plain):
            tr.release()
            tr.settle(keep)
        plain.end_hold()
        for tr in (scoped, plain):
            tr.emit("mlffr.probe")
    assert len(scoped) == 6  # three fault drops and three probes so far
    scoped.end_hold()
    events = [(e.kind, e.ts_ns) for e in scoped.events()]
    assert events[-2:] == [("span.nic_arrival", 15.0), (EV_SERVICE, 25.0)]
    assert events[:-2] == [
        (e.kind, e.ts_ns) for e in plain.events()
        if e.kind in (EV_FAULT_DROP, "mlffr.probe")]
    assert scoped.type_counts == {
        EV_SERVICE: 3, "span.nic_arrival": 3, EV_FAULT_DROP: 3,
        "mlffr.probe": 3}
    assert scoped.emitted == 12
    assert scoped.dropped == 4


def test_staged_buffer_stays_bounded_and_release_is_unchanged():
    """A long staged run prunes to the rows that can still reach the ring:
    the buffer never passes ``max(2 * capacity, 1024)`` rows, and the
    released ring, counts and tick equal an unpruned tracer's."""
    import random

    rng = random.Random(5)
    rows = [(rng.choice((EV_SERVICE, EV_SPRAY, "span.core_pop")),
             float(rng.randrange(3000)), rng.randrange(5000))
            for _ in range(6000)]
    for keep in (True, False):
        small, big = EventTracer(capacity=40), EventTracer(capacity=10_000)
        peak = 0
        for tr in (small, big):
            tr.emit("mlffr.probe")
            tr.hold()
            tr.stage()
        for kind, ts, index in rows:
            for tr in (small, big):
                tr.emit(kind, ts_ns=ts, core=0, index=index)
            peak = max(peak, len(small._staged))
        released = []
        for tr in (small, big):
            tr.release()
            tr.settle(keep)
            tr.end_hold()
            released.append([e.to_dict() for e in tr.events()])
            tr.emit("mlffr.probe")
        assert peak <= 1024
        assert released[0] == released[1][-40:]
        assert small.type_counts == big.type_counts
        assert small.emitted == big.emitted == 6002
        assert small.events()[-1].ts_ns == big.events()[-1].ts_ns


def test_column_batches_stage_like_emitted_rows():
    """A kind staged as one column batch counts, orders, prunes and is
    retained exactly like emitting its rows one by one — alone, mixed
    with event rows, inside a retention scope or not, and whatever the
    ring's capacity."""
    rng = random.Random(9)
    records = {kind: [(float(rng.randrange(400)), i, rng.randrange(9))
                      for i in rng.sample(range(5000), 700)]
               for kind in (EV_SERVICE, EV_SPRAY, "span.core_pop")}
    for capacity in (40, 10_000):
        for scoped in (False, True):
            rows, columns = EventTracer(capacity), EventTracer(capacity)
            for tr in (rows, columns):
                tr.emit("mlffr.probe")
                if scoped:
                    tr.hold()
                tr.stage()
            for kind, recs in records.items():
                for ts, index, depth in recs:
                    rows.emit(kind, ts_ns=ts, core=index % 4, index=index,
                              depth=depth)
                if kind == EV_SPRAY:  # one kind stays rows: a mixed run
                    for ts, index, depth in recs:
                        columns.emit(kind, ts_ns=ts, core=index % 4,
                                     index=index, depth=depth)
                    continue
                ts, index, depth = (np.array(col) for col in zip(*recs))
                columns.stage_columns(RecordBatch(
                    kind, index, ts, index % 4,
                    fields=(("index", index), ("depth", depth))))
                assert len(columns._staged) <= max(2 * capacity, 1024)
            for tr in (rows, columns):
                tr.release()
                if scoped:
                    tr.settle(True)
                    tr.end_hold()
                tr.emit("mlffr.probe")
            assert ([e.to_dict() for e in columns.events()]
                    == [e.to_dict() for e in rows.events()])
            assert columns.type_counts == rows.type_counts
            assert columns.emitted == rows.emitted == 2102
            assert columns.events()[-1].ts_ns == rows.events()[-1].ts_ns


def test_column_batch_outside_a_staged_run_is_retained_at_once():
    tr = EventTracer()
    index = np.array([3, 1])
    tr.stage_columns(RecordBatch(EV_SERVICE, index, np.array([5.0, 5.0]),
                                 fields=(("index", index),)))
    assert [(e.ts_ns, e.fields) for e in tr.events()] == [
        (5.0, {"index": 1}), (5.0, {"index": 3})]
    assert tr.emitted == 2

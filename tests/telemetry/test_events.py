"""Event tracer: ring retention, whole-run counts, no-op mode."""

from repro.telemetry.events import (
    EV_FAULT_DROP,
    EV_RING_DROP,
    EV_SERVICE,
    EV_SPRAY,
    NULL_TRACER,
    Event,
    EventTracer,
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


def test_cores_seen():
    tr = EventTracer()
    tr.emit(EV_SPRAY, core=0)
    tr.emit(EV_SPRAY, core=3)
    tr.emit(EV_SPRAY)  # systemwide, no core
    assert tr.cores_seen() == [0, 3]


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


def _staged_run(tr, retain):
    tr.stage()
    tr.emit(EV_SERVICE, ts_ns=20.0, core=1, index=4)
    tr.emit("span.core_pop", ts_ns=20.0, core=1, index=4)
    tr.emit(EV_SPRAY, ts_ns=10.0, core=1, index=4)
    tr.emit(EV_FAULT_DROP, ts_ns=15.0, core=0, index=3)  # never staged
    tr.emit("span.nic_arrival", ts_ns=10.0, index=4)
    tr.emit(EV_SERVICE, ts_ns=20.0, core=0, index=2)
    tr.release(retain)


def test_release_orders_staged_records_canonically():
    tr = EventTracer()
    _staged_run(tr, retain=True)
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
    _staged_run(tr, retain=False)
    assert [e.kind for e in tr.events()] == [EV_FAULT_DROP]
    assert tr.type_counts == {EV_SERVICE: 2, "span.core_pop": 1,
                              EV_SPRAY: 1, EV_FAULT_DROP: 1,
                              "span.nic_arrival": 1}
    assert tr.emitted == 6
    tr.emit("mlffr.probe")
    assert tr.events()[-1].ts_ns == 16.0  # discarded stamps never count


def test_staged_buffer_stays_bounded_and_release_is_unchanged():
    """A long staged run prunes to the rows that can still reach the ring:
    the buffer never passes ``max(2 * capacity, 1024)`` rows, and the
    released ring, counts and tick equal an unpruned tracer's."""
    import random

    rng = random.Random(5)
    rows = [(rng.choice((EV_SERVICE, EV_SPRAY, "span.core_pop")),
             float(rng.randrange(3000)), rng.randrange(5000))
            for _ in range(6000)]
    for retain in (True, False):
        small, big = EventTracer(capacity=40), EventTracer(capacity=10_000)
        peak = 0
        for tr in (small, big):
            tr.emit("mlffr.probe")
            tr.stage()
        for kind, ts, index in rows:
            for tr in (small, big):
                tr.emit(kind, ts_ns=ts, core=0, index=index)
            peak = max(peak, len(small._staged))
        released = []
        for tr in (small, big):
            tr.release(retain)
            released.append([e.to_dict() for e in tr.events()])
            tr.emit("mlffr.probe")
        assert peak <= 1024
        assert released[0] == released[1][-40:]
        assert small.type_counts == big.type_counts
        assert small.emitted == big.emitted == 6002
        assert small.events()[-1].ts_ns == big.events()[-1].ts_ns

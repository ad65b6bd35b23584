"""Hybrid engine: routing, migration charges, quotas, determinism."""

import pytest

from repro.cpu import PerfTrace, simulate
from repro.packet import make_udp_packet
from repro.parallel import HybridEngine
from repro.parallel.registry import TECHNIQUES, make_engine
from repro.placement import PlacementSpec
from repro.programs import make_program
from repro.traffic import Trace


def trace_of(counts, prog_name="ddos", limit=512):
    """counts: {src_ip: packets}; interleaved round-robin by flow."""
    pkts = []
    remaining = dict(counts)
    while remaining:
        for src in list(remaining):
            pkts.append(make_udp_packet(src, 2, 3, 4))
            remaining[src] -= 1
            if remaining[src] == 0:
                del remaining[src]
    return PerfTrace.from_trace(
        Trace(pkts).truncated(limit), make_program(prog_name)
    )


def engine(cores=4, **placement_kw) -> HybridEngine:
    defaults = dict(promote_threshold=8, demote_threshold=2,
                    decay_interval=4096)
    defaults.update(placement_kw)
    eng = make_engine("hybrid", make_program("ddos"), cores,
                      placement=PlacementSpec(**defaults))
    assert isinstance(eng, HybridEngine)
    return eng


def test_registered_technique():
    assert "hybrid" in TECHNIQUES


def test_columnar_eligible_unless_wire_overhead_counts():
    """Routes are a pure function of the admitted rows, so the hybrid
    replays columnar; only prefix-carrying frames fall back, because
    there a packet's admission reads the classifier.  The fallback still
    matches the scalar loop."""
    assert engine().columnar_eligible() is True
    pt = trace_of({1: 200, 2: 5, 3: 5})
    runs = []
    for mode in ("scalar", "columnar"):
        eng = make_engine("hybrid", make_program("ddos"), 4,
                          placement=PlacementSpec(promote_threshold=4,
                                                  demote_threshold=2),
                          count_wire_overhead=True)
        assert eng.columnar_eligible() is False
        runs.append(simulate(pt, 2e6, eng, hotpath=mode))
    assert runs[0].placement_stats == runs[1].placement_stats
    assert runs[0].per_core_packets == runs[1].per_core_packets
    assert runs[0].counters.snapshot() == runs[1].counters.snapshot()


def test_mice_pin_one_core_elephants_spray():
    eng = engine()
    pt = trace_of({1: 300, 2: 4, 3: 4})
    by_flow = {}
    for pp in pt.records:
        by_flow.setdefault(pp.key, []).append(eng.steer(pp))
    elephant_key = next(k for k, v in by_flow.items() if len(v) > 100)
    # The elephant is sprayed round-robin over every core once promoted...
    assert set(by_flow[elephant_key][-eng.num_cores:]) == set(range(4))
    # ...while each mouse stays pinned to exactly one core.
    for key, cores in by_flow.items():
        if key != elephant_key:
            assert len(set(cores)) == 1


def test_migration_charged_to_triggering_packet():
    eng = engine()
    pt = trace_of({1: 40})
    promote_index = None
    for pp in pt.records:
        eng.steer(pp)
        if promote_index is None and eng.classifier.promotions:
            promote_index = pp.index
            # The drain-or-replicate handoff lands on this packet: one
            # state-entry install per replica, at line-transfer cost.
            assert eng._migration_ns[pp.index] == pytest.approx(
                eng.num_cores * eng.contention.line_transfer_ns
            )
        else:
            assert pp.index not in eng._migration_ns
    assert promote_index is not None
    assert eng.migration_ns_total == pytest.approx(
        eng.num_cores * eng.contention.line_transfer_ns
    )


def test_migration_cost_lands_in_core_counters():
    eng = engine()
    res = simulate(trace_of({1: 200, **{i: 3 for i in range(2, 20)}}),
                   1e6, eng)
    assert res.processed == res.offered
    total_transfer = sum(c.transfer_ns for c in res.counters.cores)
    assert total_transfer == pytest.approx(eng.migration_ns_total)
    assert eng.migration_ns_total > 0


def test_quota_exhaustion_degrades_without_drops():
    eng = engine(num_tenants=1, tenant_quota=2)
    res = simulate(trace_of({i: 6 for i in range(1, 12)}), 1e6, eng)
    # Every packet still forwards; over-quota flows just run stateless.
    assert res.processed == res.offered
    stats = eng.placement_summary()
    assert stats["stateless_packets"] > 0
    assert stats["tenant_quota_drops_total"] > 0
    assert stats["tenant_quota_drops"] == {0: stats["tenant_quota_drops_total"]}


def test_placement_summary_shape_and_simresult_hook():
    eng = engine()
    res = simulate(trace_of({1: 200, 2: 5, 3: 5}), 1e6, eng)
    stats = res.placement_stats
    assert stats is not None
    for key in ("promotions", "demotions", "migrations", "elephant_packets",
                "mice_packets", "stateless_packets", "statemap_entries",
                "statemap_grow_events", "tenant_quota_drops_total"):
        assert key in stats
    assert stats["promotions"] == 1
    assert stats["elephant_packets"] > 0
    assert stats["mice_packets"] > 0
    total = (stats["elephant_packets"] + stats["mice_packets"])
    assert total == res.processed


def test_same_seed_same_promotions():
    """The acceptance gate: placement is a pure function of the stream."""
    pt = trace_of({1: 250, 2: 40, 3: 40, 4: 7})
    runs = []
    for _ in range(2):
        eng = engine()
        res = simulate(pt, 2e6, eng)
        runs.append(res.placement_stats)
    assert runs[0] == runs[1]


def test_reset_between_probes_reproduces():
    pt = trace_of({1: 250, 2: 40})
    eng = engine()
    first = simulate(pt, 2e6, eng).placement_stats
    second = simulate(pt, 2e6, eng).placement_stats  # simulate() resets
    assert first == second


def test_promoted_frames_carry_prefix_only_on_wire_methodology():
    on = make_engine("hybrid", make_program("ddos"), 4,
                     placement=PlacementSpec(promote_threshold=4,
                                             demote_threshold=2),
                     count_wire_overhead=True)
    off = engine(promote_threshold=4)
    pt = trace_of({1: 60})
    grew = 0
    for pp in pt.records:
        on.steer(pp)
        off.steer(pp)
        assert off.wire_len(pp) == pp.wire_len
        if on.wire_len(pp) > pp.wire_len:
            grew += 1
    assert grew > 0

"""Sharded engines: RSS pinning and RSS++ migration."""

import pytest

from repro.cpu import PerfTrace, simulate
from repro.packet import make_udp_packet
from repro.parallel import RssPlusPlusEngine, ShardedRssEngine, hash_for_program
from repro.programs import make_program
from repro.traffic import Trace


def trace_of(counts, prog_name="ddos"):
    """counts: {src_ip: packets}; interleaved round-robin by flow."""
    pkts = []
    remaining = dict(counts)
    while remaining:
        for src in list(remaining):
            pkts.append(make_udp_packet(src, 2, 3, 4))
            remaining[src] -= 1
            if remaining[src] == 0:
                del remaining[src]
    return PerfTrace.from_trace(Trace(pkts).truncated(192), make_program(prog_name))


def test_flow_always_steers_to_same_core():
    eng = ShardedRssEngine(make_program("ddos"), 4)
    pt = trace_of({7: 50})
    cores = {eng.steer(pp) for pp in pt.records}
    assert len(cores) == 1


def test_distinct_flows_spread():
    eng = ShardedRssEngine(make_program("ddos"), 8)
    pt = trace_of({i: 1 for i in range(1, 200)})
    cores = {eng.steer(pp) for pp in pt.records}
    assert len(cores) == 8


def test_hash_choice_follows_table1():
    pp = trace_of({1: 1}).records[0]
    assert hash_for_program(make_program("ddos"), pp) == pp.hash_l3
    assert hash_for_program(make_program("heavy_hitter"), pp) == pp.hash_l4
    assert hash_for_program(make_program("conntrack"), pp) == pp.hash_sym


def test_elephant_limits_total_throughput():
    """The §2.2 sharding pathology: one heavy flow pins one core."""
    elephant = trace_of({1: 3000})
    eng = ShardedRssEngine(make_program("ddos"), 8)
    res = simulate(elephant, 100e6, eng)
    single_core_cap = 1e9 / eng.costs.t / 1e6
    assert res.achieved_mpps < single_core_cap * 1.3


def test_balanced_flows_scale():
    balanced = trace_of({i: 40 for i in range(1, 101)})
    one = simulate(balanced, 100e6, ShardedRssEngine(make_program("ddos"), 1))
    eight = simulate(balanced, 100e6, ShardedRssEngine(make_program("ddos"), 8))
    assert eight.achieved_mpps > 3 * one.achieved_mpps


def test_no_contention_counters():
    eng = ShardedRssEngine(make_program("ddos"), 4)
    res = simulate(trace_of({i: 100 for i in range(1, 30)}), 10e6, eng)
    assert all(c.wait_ns == 0 for c in res.counters.cores)
    assert all(c.transfer_ns == 0 for c in res.counters.cores)


class TestRssPlusPlus:
    def test_rebalance_migrates_shards(self):
        # Many same-loaded flows landing unevenly: migrations should fire.
        pt = trace_of({i: 60 for i in range(1, 80)})
        eng = RssPlusPlusEngine(
            make_program("ddos"), 4, rebalance_every=500, imbalance_threshold=0.02
        )
        simulate(pt, 30e6, eng)
        assert eng.migrations > 0

    def test_migration_penalty_charged_once_per_key(self):
        pt = trace_of({i: 200 for i in range(1, 20)})
        eng = RssPlusPlusEngine(
            make_program("ddos"), 4, rebalance_every=300, imbalance_threshold=0.01
        )
        res = simulate(pt, 30e6, eng)
        transfers = sum(c.transfer_ns for c in res.counters.cores)
        if eng.migrations:
            assert transfers > 0
            # bounded by one transfer per (migration, key) pair
            assert transfers <= eng.migrations * 20 * eng.contention.line_transfer_ns

    def test_cannot_split_single_elephant(self):
        """RSS++'s fundamental limit: migration granularity is a whole shard."""
        elephant = trace_of({1: 3000})
        eng = RssPlusPlusEngine(make_program("ddos"), 8, rebalance_every=300)
        res = simulate(elephant, 100e6, eng)
        single_core_cap = 1e9 / eng.costs.t / 1e6
        assert res.achieved_mpps < single_core_cap * 1.3

    def test_improves_on_rss_under_moderate_skew(self):
        """With several medium flows colliding on one core, migration helps."""
        # craft flows that RSS hashes onto few cores
        prog = make_program("ddos")
        base = ShardedRssEngine(prog, 4)
        counts = {}
        src = 1
        # pick 12 flows that all land on core 0 under plain RSS
        while len(counts) < 12:
            pp = trace_of({src: 1}).records[0]
            if base.indirection.queue_of(pp.hash_l3) == 0:
                counts[src] = 250
            src += 1
        pt = trace_of(counts)
        rate = 25e6
        rss = simulate(pt, rate, ShardedRssEngine(prog, 4))
        rsspp = simulate(
            pt, rate,
            RssPlusPlusEngine(prog, 4, rebalance_every=400, imbalance_threshold=0.05),
        )
        assert rsspp.loss_fraction < rss.loss_fraction

    def test_reset_clears_migration_state(self):
        eng = RssPlusPlusEngine(make_program("ddos"), 4, rebalance_every=100)
        simulate(trace_of({i: 50 for i in range(1, 40)}), 30e6, eng)
        eng.reset()
        assert eng.migrations == 0
        assert all(g == 0 for g in eng._shard_gen)


@pytest.mark.parametrize("hotpath", ["scalar", "columnar"])
def test_rss_plus_plus_l2_hit_ratio_is_a_ratio(hotpath):
    """A migrated key's first touch is one access and one miss, so every
    core's L2 hit ratio stays in [0, 1] on both hot paths."""
    from repro.scenario import Scenario, build_perf_trace

    prog = make_program("ddos")
    trace = build_perf_trace(Scenario.create(
        "ddos", "caida", "rss++", 1, num_flows=400, max_packets=4000))
    for rebalance_every in (500, 2000):
        engine = RssPlusPlusEngine(prog, 8, rebalance_every=rebalance_every)
        res = simulate(trace, 2e6, engine, hotpath=hotpath)
        assert engine.migrations > 0
        for core in res.counters.cores:
            assert 0.0 <= core.l2_hit_ratio <= 1.0, (rebalance_every, core)

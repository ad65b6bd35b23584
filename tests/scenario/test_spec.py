"""Scenario/TraceSpec: freezing, hashing, validation, grids."""

import dataclasses
import pickle

import pytest

from repro.scenario import (
    PACKET_SIZE_CONNTRACK,
    PACKET_SIZE_DEFAULT,
    Scenario,
    TraceSpec,
    freeze_engine_kwargs,
    packet_size_for,
    scenario_grid,
)


class TestTraceSpec:
    def test_frozen_and_hashable(self):
        spec = TraceSpec("caida")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 99
        assert spec == TraceSpec("caida")
        assert hash(spec) == hash(TraceSpec("caida"))

    def test_content_hash_stable_and_distinct(self):
        a = TraceSpec("caida", seed=7)
        assert a.content_hash() == TraceSpec("caida", seed=7).content_hash()
        assert len(a.content_hash()) == 64
        # every field is load-bearing for the hash
        for change in (
            dict(workload="univ_dc"),
            dict(num_flows=61),
            dict(max_packets=4001),
            dict(seed=8),
            dict(bidirectional=True),
            dict(packet_size=None),
        ):
            other = dataclasses.replace(a, **change)
            assert other.content_hash() != a.content_hash(), change

    def test_with_seed(self):
        spec = TraceSpec("caida", seed=7)
        assert spec.with_seed(9).seed == 9
        assert spec.with_seed(7) == spec

    def test_display_name(self):
        assert TraceSpec("caida", num_flows=40).display_name == "caida-40flows"
        assert TraceSpec("single-flow").display_name == "single-flow"

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceSpec("caida", num_flows=0)
        with pytest.raises(ValueError):
            TraceSpec("caida", max_packets=0)
        with pytest.raises(ValueError):
            TraceSpec("caida", packet_size=0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            TraceSpec("caida", seed=-1)


class TestScenarioCreate:
    def test_defaults_follow_paper_conventions(self):
        sc = Scenario.create("ddos", "caida", "scr", 4)
        assert sc.trace.packet_size == PACKET_SIZE_DEFAULT
        assert sc.trace.bidirectional is False
        conn = Scenario.create("conntrack", "caida", "scr", 4)
        assert conn.trace.packet_size == PACKET_SIZE_CONNTRACK
        assert conn.trace.bidirectional is True  # conntrack sees both ways
        assert packet_size_for("conntrack") == PACKET_SIZE_CONNTRACK

    def test_unknown_names_rejected_with_listing(self):
        with pytest.raises(ValueError, match="unknown program"):
            Scenario.create("nope", "caida", "scr", 4)
        with pytest.raises(ValueError, match="unknown technique") as exc:
            Scenario.create("ddos", "caida", "nope", 4)
        assert "scr" in str(exc.value) and "rss++" in str(exc.value)
        with pytest.raises(ValueError, match="core"):
            Scenario.create("ddos", "caida", "scr", 0)

    def test_hash_covers_measurement_knobs(self):
        base = Scenario.create("ddos", "caida", "scr", 4)
        assert base.content_hash() == Scenario.create(
            "ddos", "caida", "scr", 4
        ).content_hash()
        for variant in (
            Scenario.create("ddos", "caida", "scr", 5),
            Scenario.create("ddos", "caida", "rss", 4),
            Scenario.create("ddos", "univ_dc", "scr", 4),
            Scenario.create("ddos", "caida", "scr", 4, burst_size=2),
            Scenario.create("ddos", "caida", "scr", 4, line_rate_gbps=40.0),
            Scenario.create("ddos", "caida", "scr", 4,
                            engine_kwargs={"count_wire_overhead": False}),
            Scenario.create("ddos", "caida", "scr", 4, collect_latency=True),
        ):
            assert variant.content_hash() != base.content_hash()

    def test_engine_kwargs_frozen_and_order_independent(self):
        a = Scenario.create("ddos", "caida", "scr", 4,
                            engine_kwargs={"a": 1, "b": 2})
        b = Scenario.create("ddos", "caida", "scr", 4,
                            engine_kwargs={"b": 2, "a": 1})
        assert a == b
        assert a.engine_kwargs_dict() == {"a": 1, "b": 2}

    def test_engine_kwargs_must_be_scalar(self):
        with pytest.raises(TypeError, match="scalar"):
            freeze_engine_kwargs({"tracer": object()})

    def test_picklable(self):
        sc = Scenario.create("conntrack", "caida", "rss++", 7,
                             engine_kwargs={"x": 1})
        assert pickle.loads(pickle.dumps(sc)) == sc

    def test_with_seed_and_describe(self):
        sc = Scenario.create("ddos", "caida", "scr", 4, seed=7)
        assert sc.with_seed(8).trace.seed == 8
        assert sc.with_seed(8).program == "ddos"
        assert "ddos" in sc.describe() and "scr" in sc.describe()


class TestScenarioPlacement:
    def placement(self, **kw):
        from repro.placement import PlacementSpec
        return PlacementSpec(**kw)

    def test_flow_count_validated_with_range_in_message(self):
        from repro.scenario.spec import MAX_NUM_FLOWS
        with pytest.raises(ValueError, match=rf"\[1, {MAX_NUM_FLOWS}\]"):
            Scenario.create("ddos", "caida", "scr", 4, num_flows=0)
        with pytest.raises(ValueError, match=rf"\[1, {MAX_NUM_FLOWS}\]"):
            Scenario.create("ddos", "caida", "scr", 4,
                            num_flows=MAX_NUM_FLOWS + 1)

    def test_tenants_bounded_by_flows(self):
        with pytest.raises(ValueError, match=r"num_tenants.*num_flows=10"):
            Scenario.create("ddos", "caida", "hybrid", 4, num_flows=10,
                            placement=self.placement(num_tenants=11))
        sc = Scenario.create("ddos", "caida", "hybrid", 4, num_flows=10,
                             placement=self.placement(num_tenants=10))
        assert sc.placement.num_tenants == 10

    def test_hash_covers_placement(self):
        base = Scenario.create("ddos", "caida", "hybrid", 4,
                               placement=self.placement())
        same = Scenario.create("ddos", "caida", "hybrid", 4,
                               placement=self.placement())
        assert base.content_hash() == same.content_hash()
        for variant in (
            Scenario.create("ddos", "caida", "hybrid", 4),
            Scenario.create("ddos", "caida", "hybrid", 4,
                            placement=self.placement(num_tenants=4)),
            Scenario.create("ddos", "caida", "hybrid", 4,
                            placement=self.placement(promote_threshold=32)),
        ):
            assert variant.content_hash() != base.content_hash()

    def test_with_placement_and_describe(self):
        assert Scenario.create("ddos", "caida", "hybrid", 4).placement is None
        pl = self.placement(num_tenants=4, tenant_quota=100)
        with_pl = Scenario.create("ddos", "caida", "hybrid", 4, placement=pl)
        assert with_pl.placement == pl
        assert pl.describe() in with_pl.describe()

    def test_picklable_with_placement(self):
        sc = Scenario.create("ddos", "caida", "hybrid", 4,
                             placement=self.placement(num_tenants=2))
        assert pickle.loads(pickle.dumps(sc)) == sc


def test_scenario_grid_order_is_techniques_outer_cores_inner():
    grid = scenario_grid("ddos", "caida", ["scr", "rss"], [1, 2],
                         max_packets=500)
    assert [(s.technique, s.cores) for s in grid] == [
        ("scr", 1), ("scr", 2), ("rss", 1), ("rss", 2),
    ]
    assert all(s.trace.max_packets == 500 for s in grid)


def test_scenario_grid_engine_kwargs_by_technique():
    grid = scenario_grid(
        "ddos", "caida", ["scr", "rss"], [1],
        engine_kwargs_by_technique={"scr": {"count_wire_overhead": False}},
    )
    assert grid[0].engine_kwargs_dict() == {"count_wire_overhead": False}
    assert grid[1].engine_kwargs == ()

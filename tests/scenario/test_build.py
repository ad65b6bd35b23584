"""StackBuilder/run_scenario: the composition root."""

import pytest

from repro.parallel.base import BaseEngine
from repro.scenario import (
    Scenario,
    ScenarioExecutor,
    StackBuilder,
    build_stack,
    run_scenario,
    scenario_grid,
)

_SMALL = dict(num_flows=12, max_packets=400)


class TestStackBuilder:
    def test_stack_has_all_layers(self):
        sc = Scenario.create("ddos", "caida", "scr", 2, **_SMALL)
        stack = build_stack(sc)
        assert stack.scenario is sc
        assert stack.program.name == "ddos"
        assert stack.perf_trace.program_name == "ddos"
        assert isinstance(stack.engine, BaseEngine)
        assert stack.engine.num_cores == 2

    def test_memoizes_within_builder(self):
        builder = StackBuilder()
        a = Scenario.create("ddos", "caida", "scr", 1, **_SMALL)
        b = Scenario.create("ddos", "caida", "rss", 4, **_SMALL)
        s1, s2 = builder.stack(a), builder.stack(b)
        # same spec → same trace/perf-trace objects, engines always fresh
        assert s1.perf_trace is s2.perf_trace
        assert s1.engine is not s2.engine

    def test_seed_changes_workload(self):
        builder = StackBuilder()
        a = Scenario.create("ddos", "caida", "scr", 1, **_SMALL)
        assert builder.trace(a.trace) is not builder.trace(
            a.with_seed(8).trace
        )

    def test_engine_kwargs_forwarded(self):
        sc = Scenario.create("ddos", "caida", "scr", 2,
                             engine_kwargs={"num_slots": 8}, **_SMALL)
        assert build_stack(sc).engine.num_slots == 8


class TestRunScenario:
    def test_same_scenario_same_result(self):
        sc = Scenario.create("token_bucket", "caida", "rss", 2, **_SMALL)
        a = run_scenario(sc)
        b = run_scenario(sc)  # fresh builder, fresh engine
        assert a.mlffr_mpps == b.mlffr_mpps
        assert a.probes == b.probes

    def test_collect_latency(self):
        sc = Scenario.create("ddos", "caida", "scr", 2,
                             collect_latency=True, **_SMALL)
        res = run_scenario(sc)
        assert res.latency_ns is not None and res.latency_ns["p50"] > 0
        assert res.counters is not None

    def test_profile(self):
        sc = Scenario.create("ddos", "caida", "scr", 2, profile=True, **_SMALL)
        res = run_scenario(sc)
        assert res.profile is not None
        assert res.profile  # non-empty attribution dict

    def test_compact_drops_payload_keeps_numbers(self):
        sc = Scenario.create("ddos", "caida", "scr", 1, **_SMALL)
        res = run_scenario(sc)
        assert res.mlffr is not None
        compacted = res.compact()
        assert compacted.mlffr is None
        assert compacted.mlffr_mpps == res.mlffr_mpps
        assert compacted.probes == res.probes

    def test_grid_results_carry_iterations(self):
        grid = scenario_grid("ddos", "caida", ["scr"], [1, 2], **_SMALL)
        results = ScenarioExecutor().run(grid)
        assert all(r.iterations > 0 for r in results)
        assert all(r.iterations == r.mlffr.iterations for r in results)

    def test_unknown_technique_rejected_in_grid(self):
        with pytest.raises(ValueError, match="unknown technique"):
            scenario_grid("ddos", "caida", ["scr", "magic"], [2], **_SMALL)

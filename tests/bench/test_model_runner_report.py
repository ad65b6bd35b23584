"""Analytic model (App. A), scenario workloads and runs, and report rendering."""

import pytest

from repro.bench import (
    linear_scaling_limit,
    predicted_hybrid_mpps,
    predicted_relaxed_scr_mpps,
    predicted_rss_mpps,
    predicted_scr_mpps,
    render_scaling_series,
    render_table,
)
from repro.cpu import TABLE4_PARAMS, ContentionParams, CostParams
from repro.scenario import (
    PACKET_SIZE_CONNTRACK,
    PACKET_SIZE_DEFAULT,
    Scenario,
    ScenarioExecutor,
    StackBuilder,
    TraceSpec,
    run_scenario,
    scenario_grid,
)


class TestModel:
    def test_single_core_is_one_over_t(self):
        p = TABLE4_PARAMS["ddos"]
        assert predicted_scr_mpps(p, 1) == pytest.approx(1e3 / p.t)

    def test_linear_when_c2_zero(self):
        p = CostParams(t=100, c2=0, d=90, c1=10)
        assert predicted_scr_mpps(p, 8) == pytest.approx(8 * predicted_scr_mpps(p, 1))

    def test_sublinear_with_history_cost(self):
        p = TABLE4_PARAMS["conntrack"]
        assert predicted_scr_mpps(p, 8) < 8 * predicted_scr_mpps(p, 1)

    def test_monotone_in_cores(self):
        p = TABLE4_PARAMS["token_bucket"]
        series = [predicted_scr_mpps(p, k) for k in range(1, 15)]
        assert series == sorted(series)

    def test_technique_curves_meet_at_their_limits(self):
        p = TABLE4_PARAMS["ddos"]
        # Relaxed SCR pays one merged c2 at most: equal to SCR up to k=2,
        # flat per-core cost after.
        for k in (1, 2):
            assert predicted_relaxed_scr_mpps(p, k) == predicted_scr_mpps(p, k)
        assert predicted_relaxed_scr_mpps(p, 8) == pytest.approx(
            4 * predicted_relaxed_scr_mpps(p, 2))
        # A perfect 1/k RSS split is k single-core (d + c1) rates.
        assert predicted_rss_mpps(p, 0.25) == pytest.approx(4e3 / (p.d + p.c1))
        # Hybrid with no probe cost: all-elephant traffic is plain SCR,
        # all-mice traffic is RSS at the same busiest-core share.
        free = ContentionParams(atomic_ns=0.0)
        assert predicted_hybrid_mpps(p, 4, 1.0, 1.0, free) == \
            pytest.approx(predicted_scr_mpps(p, 4))
        assert predicted_hybrid_mpps(p, 4, 0.0, 0.25, free) == \
            pytest.approx(4e3 / p.t)

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            predicted_scr_mpps(TABLE4_PARAMS["ddos"], 0)

    def test_scaling_limit_orders_programs(self):
        """Programs with heavier per-history cost taper earlier."""
        conntrack = linear_scaling_limit(TABLE4_PARAMS["conntrack"])
        ddos = linear_scaling_limit(TABLE4_PARAMS["ddos"])
        assert conntrack < ddos

    def test_stateless_never_tapers(self):
        assert linear_scaling_limit(TABLE4_PARAMS["forwarder"]) > 10**6

    def test_limit_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            linear_scaling_limit(TABLE4_PARAMS["ddos"], efficiency=1.5)


class TestRunner:
    """Workload conventions and MLFFR runs through the scenario layer."""

    _WORKLOAD = dict(num_flows=25, max_packets=1500)

    @pytest.fixture(scope="class")
    def builder(self):
        return StackBuilder()

    def spec(self, workload, bidirectional, packet_size):
        return TraceSpec(workload, bidirectional=bidirectional,
                         packet_size=packet_size, **self._WORKLOAD)

    def test_packet_sizes_match_section_4_2(self):
        def size(program):
            return Scenario.create(program, "caida", "scr", 1).trace.packet_size

        assert size("conntrack") == PACKET_SIZE_CONNTRACK == 256
        assert size("ddos") == PACKET_SIZE_DEFAULT == 192

    def test_trace_cached(self, builder):
        t1 = builder.trace(self.spec("univ_dc", False, 192))
        t2 = builder.trace(self.spec("univ_dc", False, 192))
        assert t1 is t2

    def test_trace_truncated_to_packet_size(self, builder):
        t = builder.trace(self.spec("caida", False, 192))
        assert all(p.wire_len == 192 for p in t)

    def test_single_flow_trace_supported(self, builder):
        t = builder.trace(self.spec("single-flow", True, 256))
        assert t.stats(bidirectional=True).flows == 1

    def test_mlffr_point_end_to_end(self, builder):
        sc = Scenario.create("ddos", "univ_dc", "scr", 2, **self._WORKLOAD)
        res = run_scenario(sc, builder=builder)
        assert 10 < res.mlffr_mpps < 25

    def test_scaling_sweep_structure(self):
        grid = scenario_grid("ddos", "univ_dc", ["scr", "rss"], [1, 2],
                             **self._WORKLOAD)
        results = ScenarioExecutor().run(grid)
        assert len(results) == 4
        assert {r.scenario.technique for r in results} == {"scr", "rss"}
        assert all(r.mlffr_mpps > 0 for r in results)


class TestReport:
    def test_render_table_aligns(self):
        out = render_table(["a", "bb"], [[1, 2], [333, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_scaling_series(self):
        out = render_scaling_series(
            {"scr": [(1, 8.0), (2, 16.0)], "rss": [(1, 8.0)]}, title="fig"
        )
        assert "scr (Mpps)" in out
        assert "16.00" in out
        assert "-" in out  # missing rss point at 2 cores

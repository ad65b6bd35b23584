"""Cycle-attribution profiler: coverage, c1/c2 split, model residuals."""

import pytest

from repro.bench.figures import SCR_IN_FRAME
from repro.cpu.costmodel import TABLE4_PARAMS
from repro.perf import attribute_result, attribution_from_snapshot, model_residuals
from repro.scenario import Scenario, run_scenario


def scr_result(cores=4, technique="scr", program="ddos"):
    scenario = Scenario.create(
        program, "caida", technique, cores, num_flows=30, max_packets=1000,
        engine_kwargs=SCR_IN_FRAME if technique == "scr" else None,
    )
    return run_scenario(scenario).mlffr.result_at_mlffr


class TestAttribution:
    def test_scr_coverage_complete(self):
        attr = attribute_result(scr_result(cores=4))
        # Acceptance bar is >= 95 %; the built-in engines charge every
        # nanosecond into a bucket, so coverage is exactly 1.
        assert attr.coverage >= 0.95
        assert attr.coverage == pytest.approx(1.0)
        for core in attr.cores:
            assert core.coverage == pytest.approx(1.0)

    def test_scr_history_split(self):
        attr = attribute_result(scr_result(cores=4))
        totals = attr.totals()
        # With 4 cores SCR fast-forwards ~3 history items per packet at
        # c2=15 vs c1=10: history time dominates current compute.
        assert totals["history_ns"] > totals["current_compute_ns"]
        assert totals["dispatch_ns"] > 0
        # history is carved out of compute, never double counted.
        for core in attr.cores:
            assert core.history_ns <= core.busy_ns

    def test_single_core_has_no_history_time(self):
        attr = attribute_result(scr_result(cores=1))
        assert attr.totals()["history_ns"] == 0.0

    def test_shared_engine_charges_contention(self):
        attr = attribute_result(scr_result(cores=4, technique="shared"))
        assert attr.totals()["contention_ns"] > 0
        assert attr.coverage == pytest.approx(1.0)

    def test_utilization_bounded(self):
        attr = attribute_result(scr_result(cores=4))
        assert attr.duration_ns > 0
        for core in attr.cores:
            assert 0.0 <= core.utilization <= 1.0

    def test_snapshot_round_trip_matches_live(self):
        res = scr_result(cores=2)
        live = attribute_result(res)
        via_snapshot = attribution_from_snapshot(res.counters.snapshot(),
                                                 res.duration_ns)
        assert via_snapshot.to_dict() == live.to_dict()

    def test_snapshot_without_history_key_defaults_to_zero(self):
        # Artifacts written before the c1/c2 split still attribute fully.
        snap = {"cores": [{"core_id": 0, "packets": 10, "busy_ns": 100.0,
                           "dispatch_ns": 60.0, "compute_ns": 40.0,
                           "wait_ns": 0.0, "transfer_ns": 0.0}]}
        attr = attribution_from_snapshot(snap, duration_ns=200.0)
        assert attr.cores[0].history_ns == 0.0
        assert attr.cores[0].current_compute_ns == 40.0
        assert attr.coverage == pytest.approx(1.0)

    def test_to_dict_json_safe(self):
        import json

        json.dumps(attribute_result(scr_result(cores=2)).to_dict())


class TestModelResiduals:
    def test_perfect_prediction_zero_residual(self):
        costs = TABLE4_PARAMS["ddos"]
        from repro.bench.model import predicted_scr_mpps

        measured = [(k, predicted_scr_mpps(costs, k)) for k in (1, 2, 4)]
        out = model_residuals("ddos", measured)
        assert set(out) == {"1", "2", "4"}
        for row in out.values():
            assert row["residual"] == pytest.approx(0.0)

    def test_residual_sign_and_magnitude(self):
        from repro.bench.model import predicted_scr_mpps

        costs = TABLE4_PARAMS["ddos"]
        pred = predicted_scr_mpps(costs, 2)
        out = model_residuals("ddos", [(2, pred * 1.1)])
        assert out["2"]["residual"] == pytest.approx(0.1)
        assert out["2"]["predicted_mpps"] == pytest.approx(pred)

    def test_unknown_program_rejected(self):
        with pytest.raises(KeyError):
            model_residuals("not_a_program", [(1, 1.0)])

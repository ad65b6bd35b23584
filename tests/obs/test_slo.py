"""The SLO reducer: unit folds over crafted event streams, the
ground-truth check against the chaos harness — resynced fault classes get
finite TTD/TTR, non-recovering ones report fork/unrecoverable — and the
functional engine's Algorithm 1 rounds, which detect and repair gaps."""

import io

from repro.cli import main
from repro.faults.harness import run_chaos
from repro.faults.spec import FaultSpec
from repro.obs.slo import GAP_OPENING_KINDS, SLO_SCHEMA, compute_slo
from repro.telemetry.events import (
    EV_DIVERGENCE,
    EV_FAST_FORWARD,
    EV_FAULT_DROP,
    EV_FAULT_KILL,
    EV_FAULT_TRUNCATE,
    EV_GAP_DETECTED,
    EV_QUARANTINE,
    EV_RECOVERY_FINISH,
    EV_RECOVERY_START,
    EV_RESYNC,
    EV_UNRECOVERABLE,
    EventTracer,
)
from repro.telemetry.artifact import RunArtifact


def _ev(kind, ts, **fields):
    return {"kind": kind, "ts_ns": ts, **fields}


class TestReducerUnit:
    def test_no_fault_events_returns_none(self):
        assert compute_slo([]) is None
        assert compute_slo([_ev("core.service", 1.0, core=0)]) is None

    def test_quarantine_resync_path(self):
        slo = compute_slo([
            _ev(EV_FAULT_DROP, 10.0, core=1, index=3),
            _ev(EV_QUARANTINE, 30.0, core=1, seq=4),
            _ev(EV_RESYNC, 50.0, core=1, seq=4, replayed=7),
        ])
        assert slo["schema"] == SLO_SCHEMA
        assert slo["gaps"]["injected"] == 1
        assert slo["gaps"]["detected"] == 1
        assert slo["gaps"]["resynced"] == 1
        assert slo["ttd_ns"] == {
            "count": 1, "p50": 20.0, "p99": 20.0, "max": 20.0, "mean": 20.0,
        }
        assert slo["ttr_ns"]["p50"] == 40.0
        assert slo["packets_degraded"]["p50"] == 7.0
        assert slo["cores_affected"] == [1]
        assert slo["unrecoverable_cores"] == []

    def test_fast_forward_covers_with_ttr_equal_ttd(self):
        slo = compute_slo([
            _ev(EV_FAULT_DROP, 5.0, core=0, index=1),
            _ev(EV_FAST_FORWARD, 8.0, core=0, seq=2, length=3),
        ])
        assert slo["gaps"]["covered"] == 1
        assert slo["ttd_ns"]["p50"] == 3.0
        assert slo["ttr_ns"]["p50"] == 3.0
        assert slo["packets_degraded"]["p50"] == 3.0

    def test_recovery_round_detects_then_recovers(self):
        slo = compute_slo([
            _ev(EV_FAULT_DROP, 1.0, core=2, index=9),
            _ev(EV_RECOVERY_START, 2.0, core=2, seq=14, gap=4),
            _ev(EV_RECOVERY_FINISH, 5.0, core=2, seq=14, recovered=4),
        ])
        assert slo["gaps"]["detected"] == slo["gaps"]["recovered"] == 1
        assert slo["gaps"]["undetected"] == slo["gaps"]["unresolved"] == 0
        assert slo["ttd_ns"]["p50"] == 1.0
        assert slo["ttr_ns"]["p50"] == 4.0
        assert slo["packets_degraded"]["p50"] == 4.0

    def test_unfinished_recovery_round_is_unresolved(self):
        slo = compute_slo([
            _ev(EV_FAULT_DROP, 1.0, core=0, index=3),
            _ev(EV_RECOVERY_START, 2.0, core=0, seq=8, gap=4),
            # a resync on the core does not close an Algorithm 1 round
            _ev(EV_RESYNC, 3.0, core=0, seq=9, replayed=2),
        ])
        assert slo["gaps"]["detected"] == 1
        assert slo["gaps"]["recovered"] == slo["gaps"]["resynced"] == 0
        assert slo["gaps"]["unresolved"] == 1

    def test_gap_detected_forks_without_ttr(self):
        slo = compute_slo([
            _ev(EV_FAULT_DROP, 5.0, core=2, index=1),
            _ev(EV_GAP_DETECTED, 9.0, core=2, seq=2),
        ])
        assert slo["gaps"]["forked"] == 1
        assert slo["ttd_ns"]["count"] == 1
        assert slo["ttr_ns"]["count"] == 0

    def test_unrecoverable_core_reports_no_ttr(self):
        slo = compute_slo([
            _ev(EV_FAULT_DROP, 5.0, core=3, index=1),
            _ev(EV_QUARANTINE, 8.0, core=3, seq=2),
            _ev(EV_UNRECOVERABLE, 9.0, core=3, seq=2),
        ])
        assert slo["gaps"]["unrecoverable"] == 1
        assert slo["gaps"]["resynced"] == 0
        assert slo["ttr_ns"]["count"] == 0
        assert slo["unrecoverable_cores"] == [3]

    def test_gap_on_killed_core_is_undetected(self):
        slo = compute_slo([
            _ev(EV_FAULT_KILL, 1.0, core=0, index=0),
            _ev(EV_FAULT_DROP, 2.0, core=0, index=1),
        ])
        assert slo["gaps"]["undetected"] == 1
        assert slo["ttd_ns"]["count"] == 0

    def test_open_gap_at_end_is_undetected(self):
        slo = compute_slo([_ev(EV_FAULT_DROP, 2.0, core=0, index=1)])
        assert slo["gaps"]["undetected"] == 1

    def test_coreless_truncation_closed_by_any_detection(self):
        slo = compute_slo([
            _ev(EV_FAULT_TRUNCATE, 4.0, seq=9),
            _ev(EV_QUARANTINE, 10.0, core=2, seq=9),
            _ev(EV_RESYNC, 12.0, core=2, seq=9),
        ])
        assert slo["gaps"]["injected"] == 1
        assert slo["gaps"]["detected"] == 1
        assert slo["gaps"]["resynced"] == 1

    def test_blast_radius_from_divergence_events(self):
        slo = compute_slo([
            _ev(EV_FAULT_DROP, 1.0, core=0, index=1),
            _ev(EV_DIVERGENCE, 2.0, index=5, blast_radius=2),
        ])
        assert slo["blast_radius"] == {
            "count": 1, "p50": 2.0, "p99": 2.0, "max": 2.0, "mean": 2.0,
        }

    def test_events_reduce_identically_regardless_of_input_order(self):
        events = [
            _ev(EV_FAULT_DROP, 10.0, core=1, index=3),
            _ev(EV_QUARANTINE, 30.0, core=1, seq=4),
            _ev(EV_RESYNC, 50.0, core=1, seq=4, replayed=7),
        ]
        assert compute_slo(events) == compute_slo(list(reversed(events)))


def _chaos_slo(spec, recovery=True):
    tracer = EventTracer(capacity=200_000)
    outcome = run_chaos("port_knocking", spec, num_cores=4,
                        max_packets=800, recovery=recovery, tracer=tracer)
    slo = compute_slo(e.to_dict() for e in tracer.events())
    return outcome, slo


class TestChaosGroundTruth:
    def test_resynced_drop_class_has_finite_ttd_and_ttr(self):
        outcome, slo = _chaos_slo(FaultSpec(seed=7, drop_rate=0.02))
        assert outcome.resyncs > 0
        assert slo["gaps"]["injected"] > 0
        assert slo["gaps"]["undetected"] == 0
        assert slo["gaps"]["resynced"] + slo["gaps"]["covered"] > 0
        assert slo["ttd_ns"]["count"] > 0
        assert slo["ttr_ns"]["count"] > 0
        assert slo["unrecoverable_cores"] == []

    def test_truncate_class_matches_harness_gap_count(self):
        outcome, slo = _chaos_slo(FaultSpec(seed=11, truncate_rate=0.01))
        assert slo["gaps"]["injected"] == outcome.injected["truncations"]
        # Truncations that never gap a replica are benign, not undetected.
        assert slo["gaps"]["undetected"] == 0
        assert slo["gaps"]["detected"] + slo["gaps"]["benign"] == \
            slo["gaps"]["injected"]
        if outcome.gap_events:
            assert slo["ttd_ns"]["count"] > 0

    def test_no_recovery_forks_instead_of_resyncing(self):
        outcome, slo = _chaos_slo(FaultSpec(seed=7, drop_rate=0.02),
                                  recovery=False)
        assert not outcome.recovery_enabled
        assert slo["gaps"]["resynced"] == 0
        assert slo["gaps"]["forked"] + slo["gaps"]["covered"] > 0

    def test_detected_count_matches_harness_ground_truth(self):
        outcome, slo = _chaos_slo(FaultSpec(seed=7, drop_rate=0.02))
        # Every gap event the harness says was detected must be accounted
        # for by the reducer as detected (covered / quarantined / forked).
        assert outcome.gap_events_detected == outcome.gap_events
        assert slo["gaps"]["injected"] == (
            slo["gaps"]["detected"] + slo["gaps"]["undetected"]
            + slo["gaps"]["unrecoverable"] + slo["gaps"]["benign"]
        )

    def test_gap_opening_kinds_cover_the_injectable_losses(self):
        assert EV_FAULT_DROP in GAP_OPENING_KINDS
        assert EV_FAULT_TRUNCATE in GAP_OPENING_KINDS


def test_functional_run_recovers_every_injected_gap(tmp_path):
    """`run --loss-rate` heals each drop with an Algorithm 1 round, so the
    artifact's SLO section reports every gap detected, none undetected."""
    out = io.StringIO()
    code = main(["run", "--program", "port_knocking", "--loss-rate", "0.01",
                 "--packets", "2000", "--telemetry", str(tmp_path)], out=out)
    assert code == 0
    gaps = RunArtifact.load(tmp_path).slo["gaps"]
    assert gaps["injected"] > 0
    assert gaps["undetected"] == 0
    assert gaps["detected"] == gaps["recovered"] == gaps["injected"]

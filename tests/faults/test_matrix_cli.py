"""The curated chaos matrix and the ``scr-repro chaos`` CLI command."""

import io
import json

import pytest

from repro.cli import main
from repro.faults.matrix import (
    ChaosMatrixParams,
    ChaosReport,
    fault_classes,
    run_chaos_matrix,
)
from repro.perf.artifact import BenchArtifact


@pytest.fixture(scope="module")
def report():
    # One quick matrix run shared by every assertion below (~seconds).
    return run_chaos_matrix(ChaosMatrixParams(seed=7, jobs=1, quick=True))


class TestMatrix:
    def test_curated_classes_cover_every_injector(self):
        rows = fault_classes(seed=7)
        names = {r.name for r in rows}
        assert names >= {"rx_drop", "pop_drop", "history_truncate",
                         "dup_reorder", "wide_history", "bounded_log",
                         "no_recovery"}

    def test_gate_passes(self, report):
        assert report.ok
        assert report.gaps_injected > 0
        assert report.gaps_detected == report.gaps_injected
        assert report.undetected_divergences == 0
        assert report.resynced_classes

    def test_expectations_hold_per_class(self, report):
        assert report.outcomes["wide_history"].resyncs == 0
        assert report.outcomes["no_recovery"].suspect_cores
        assert not report.outcomes["no_recovery"].digest_equal
        assert report.outcomes["bounded_log"].unrecoverable_cores

    def test_mlffr_degrades_with_drop_rate(self, report):
        rates = sorted(report.mlffr_by_rate, key=float)
        mpps = [report.mlffr_by_rate[r] for r in rates]
        assert float(rates[0]) == 0.0
        assert mpps == sorted(mpps, reverse=True)
        assert mpps[0] > mpps[-1]

    def test_artifact_series_and_round_trip(self, report, tmp_path):
        names = set(report.artifact.series)
        assert names == {"gap_detection", "digest_equality",
                         "recovery_latency_cycles", "mlffr_vs_drop_rate",
                         "mlffr_degradation_pct"}
        path = report.artifact.save(tmp_path)
        clone = BenchArtifact.load(path)
        assert clone.name == "chaos_recovery"
        assert set(clone.series) == names
        # Bit-identity contract: no wall-clock stamps in the payload.
        raw = json.loads(path.read_text())
        assert raw["created_utc"] == ""

    def test_summary_mentions_gate_verdict(self, report):
        text = "\n".join(report.summary_lines())
        assert "chaos gate: PASS" in text

    def test_summary_prints_mlffr_loss_as_negative_change(self):
        stub = ChaosReport(params=ChaosMatrixParams(),
                           mlffr_by_rate={"0": 26.50, "0.005": 24.75})
        lines = stub.summary_lines()
        assert "  mlffr @ drop=0: 26.50 Mpps (baseline)" in lines
        assert "  mlffr @ drop=0.005: 24.75 Mpps (-6.6% vs fault-free)" in lines


class TestChaosCli:
    def _run(self, monkeypatch, tmp_path, ok, argv_extra=()):
        stub = ChaosReport(
            params=ChaosMatrixParams(seed=7, jobs=1, quick=True),
            artifact=BenchArtifact(name="chaos_recovery"))
        monkeypatch.setattr(ChaosReport, "ok", property(lambda self: ok))
        monkeypatch.setattr(ChaosReport, "summary_lines",
                            lambda self: ["stubbed"])
        monkeypatch.setattr("repro.faults.matrix.run_chaos_matrix",
                            lambda params: stub)
        out = io.StringIO()
        code = main(["chaos", "--out", str(tmp_path / "chaos"),
                     *argv_extra], out=out)
        return code, out.getvalue()

    def test_exit_zero_on_pass(self, monkeypatch, tmp_path):
        code, text = self._run(monkeypatch, tmp_path, ok=True)
        assert code == 0
        assert "stubbed" in text

    def test_exit_one_on_gate_failure(self, monkeypatch, tmp_path):
        code, _ = self._run(monkeypatch, tmp_path, ok=False)
        assert code == 1

    def test_rejects_bad_jobs(self, tmp_path):
        out = io.StringIO()
        assert main(["chaos", "--jobs", "0",
                     "--out", str(tmp_path)], out=out) == 2

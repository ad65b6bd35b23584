"""Run artifacts: the manifest round-trip and the full instrumented stack."""

import io
import json

import pytest

from repro.cli import main
from repro.scenario import Scenario, run_scenario
from repro.telemetry import (
    EVENTS_NAME,
    MANIFEST_NAME,
    NULL_TELEMETRY,
    PROM_NAME,
    TRACE_NAME,
    RunArtifact,
    Telemetry,
    attribution_from_snapshot,
)
from repro.telemetry.events import EV_SPRAY
from repro.telemetry.inspect import summarize_artifact


class TestTelemetryBundle:
    def test_write_and_load(self, tmp_path):
        tele = Telemetry()
        tele.registry.counter("drops").inc(3)
        tele.tracer.emit(EV_SPRAY, ts_ns=1.0, core=0, seq=1)
        art = tele.write_artifact(
            tmp_path, command="test", config={"cores": 2}, num_cores=2
        )
        for name in (MANIFEST_NAME, EVENTS_NAME, TRACE_NAME, PROM_NAME):
            assert (tmp_path / name).exists()
        loaded = RunArtifact.load(tmp_path)
        assert loaded.command == "test"
        assert loaded.config == {"cores": 2}
        assert loaded.event_type_counts == {EV_SPRAY: 1}
        assert loaded.metrics["registry"]["drops"]["value"] == 3
        assert loaded.git_sha == art.git_sha
        assert len(loaded.git_sha) in (7, 40) or loaded.git_sha == "unknown"

    def test_load_accepts_manifest_path(self, tmp_path):
        Telemetry().write_artifact(tmp_path, command="x")
        assert RunArtifact.load(tmp_path / MANIFEST_NAME).command == "x"

    def test_git_sha_is_read_once_per_process(self, tmp_path, monkeypatch):
        import subprocess

        import repro.telemetry.artifact as artifact
        from repro.hostprof.artifact import HostProfile
        from repro.hostprof.clock import PhaseClock

        spawned = []
        run = subprocess.run

        def counting(cmd, *args, **kwargs):
            if cmd[0] == "git":
                spawned.append(kwargs.get("cwd"))
            return run(cmd, *args, **kwargs)

        monkeypatch.setattr(artifact, "_GIT_SHAS", {})
        monkeypatch.setattr(artifact.subprocess, "run", counting)
        first = Telemetry().write_artifact(tmp_path / "a", command="x")
        second = Telemetry().write_artifact(tmp_path / "b", command="x")
        profile = HostProfile.create("x", {}, PhaseClock())
        assert len(spawned) == 1
        assert first.git_sha == second.git_sha == profile.git_sha
        artifact.current_git_sha(tmp_path)  # another directory: its own read
        assert len(spawned) == 2

    def test_disabled_bundle_retains_nothing(self):
        assert not NULL_TELEMETRY.enabled
        NULL_TELEMETRY.tracer.emit(EV_SPRAY, core=0)
        NULL_TELEMETRY.registry.counter("x").inc()
        assert NULL_TELEMETRY.tracer.events() == []
        assert NULL_TELEMETRY.tracer.emitted == 0
        assert len(NULL_TELEMETRY.registry) == 0


class TestInstrumentedSweep:
    """ISSUE acceptance: a Fig. 6-style point with --telemetry semantics."""

    def run_point(self, tmp_path):
        tele = Telemetry()
        res = run_scenario(
            Scenario.create("ddos", "caida", "scr", 4, max_packets=1200),
            telemetry=tele,
        )
        art = tele.write_artifact(
            tmp_path,
            command="mlffr",
            config={"cores": 4},
            extra_metrics={
                "counters": res.counters,
                "latency_ns": res.latency_ns,
            },
            num_cores=4,
        )
        return res.mlffr, art

    def test_attribution_sums_to_busy(self, tmp_path):
        _, art = self.run_point(tmp_path)
        counters = art.metrics["counters"]
        for core in counters["cores"]:
            parts = (core["dispatch_ns"] + core["compute_ns"]
                     + core["wait_ns"] + core["transfer_ns"])
            assert parts == core["busy_ns"]
        totals = counters["totals"]
        parts = (totals["dispatch_ns"] + totals["compute_ns"]
                 + totals["wait_ns"] + totals["transfer_ns"])
        assert parts == totals["busy_ns"]
        assert totals["busy_ns"] == sum(
            c["busy_ns"] for c in counters["cores"]
        )

    def test_at_least_five_event_types(self, tmp_path):
        _, art = self.run_point(tmp_path)
        assert len(art.event_type_counts) >= 5

    def test_jsonl_and_trace_valid(self, tmp_path):
        self.run_point(tmp_path)
        ts = []
        for line in (tmp_path / EVENTS_NAME).read_text().splitlines():
            ts.append(json.loads(line)["ts_ns"])
        assert ts == sorted(ts)
        doc = json.loads((tmp_path / TRACE_NAME).read_text())
        core_tracks = {
            r["tid"]
            for r in doc["traceEvents"]
            if r["ph"] == "M" and isinstance(r["tid"], int)
        }
        assert core_tracks == {0, 1, 2, 3}

    def test_latency_percentiles_recorded(self, tmp_path):
        _, art = self.run_point(tmp_path)
        lat = art.metrics["latency_ns"]
        assert lat["p50"] <= lat["p99"] <= lat["p99_9"]
        assert lat["p50"] > 0

    def test_mlffr_counters_frozen_at_best_probe(self, tmp_path):
        res, art = self.run_point(tmp_path)
        # The engine keeps mutating its counters during later probes; the
        # best result's snapshot must reflect the reported rate's run.
        best = res.result_at_mlffr
        assert best is not None
        assert best.counters.total_packets() == sum(
            c["packets"] for c in art.metrics["counters"]["cores"]
        )

    def test_inspect_renders(self, tmp_path):
        self.run_point(tmp_path)
        text = summarize_artifact(tmp_path)
        assert "per-core time attribution" in text
        assert "p99" in text
        assert "mlffr_mpps" in text


def _per_core_rows(text):
    """The cells of inspect's per-core attribution table, one list per core."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("per-core time attribution"))
    assert lines[start + 1].split()[:6] == [
        "core", "packets", "d", "c1", "(k-1)·c2", "contention"]
    rows = []
    for line in lines[start + 3:]:
        if not line.strip() or line.startswith("totals:"):
            break
        rows.append(line.split())
    return rows


@pytest.mark.parametrize("technique", ["scr", "shared"])
def test_inspect_renders_the_snapshot_attribution(technique, tmp_path):
    """Every per-core row of ``inspect`` is the d / c1 / (k-1)·c2 /
    contention split of the artifact's own counters snapshot."""
    tdir = tmp_path / "tele"
    assert main([
        "mlffr", "--program", "ddos", "--workload", "caida",
        "--technique", technique, "--cores", "4", "--packets", "1200",
        "--telemetry", str(tdir),
    ], out=io.StringIO()) == 0
    manifest = json.loads((tdir / MANIFEST_NAME).read_text())
    attribution = attribution_from_snapshot(manifest["metrics"]["counters"])
    rows = _per_core_rows(summarize_artifact(tdir))
    assert len(rows) == len(attribution.cores) == 4
    for row, core in zip(rows, attribution.cores):
        assert row[:6] == [
            str(core.core_id), str(core.packets),
            *(f"{100 * share:.1f}%" for share in core.shares()),
        ]
    history = [core.history_ns for core in attribution.cores]
    if technique == "scr":
        assert all(ns > 0 for ns in history)
        assert all(row[4] != "0.0%" for row in rows)
    else:
        assert history == [0.0] * 4
        assert all(row[4] == "0.0%" for row in rows)

"""The report dashboard: input classification, section rendering,
byte-determinism, and graceful degradation on pre-slo artifacts."""

import json
import shutil

import pytest

from repro.hostprof.artifact import HostProfile
from repro.hostprof.clock import PhaseClock
from repro.obs.report import classify_inputs, render_report, write_report
from repro.obs.sampling import SpanSampler
from repro.obs.spans import SpanEmitter
from repro.telemetry import Telemetry
from repro.telemetry.events import (
    EV_FAULT_DROP,
    EV_QUARANTINE,
    EV_RESYNC,
    EV_RING_DROP,
    EV_WIRE_DROP,
)


def _artifact_dir(tmp_path, name="run1", with_faults=True):
    tele = Telemetry()
    spans = SpanEmitter(tele.tracer, SpanSampler(7, 1.0))
    tracer = tele.tracer
    for i in range(4):
        spans.emit("nic_arrival", i, ts_ns=10.0 * i)
        spans.emit("ring_enqueue", i, ts_ns=10.0 * i + 2.0, core=i % 2)
        spans.emit("core_pop", i, ts_ns=10.0 * i + 4.0, core=i % 2)
        spans.emit("transition", i, ts_ns=10.0 * i + 6.0, core=i % 2,
                   dur_ns=3.0)
    tracer.emit(EV_WIRE_DROP, ts_ns=3.0, index=9)
    tracer.emit(EV_RING_DROP, ts_ns=4.0, core=0, index=10, depth=8)
    if with_faults:
        tracer.emit(EV_FAULT_DROP, ts_ns=5.0, core=1, index=11)
        tracer.emit(EV_QUARANTINE, ts_ns=8.0, core=1, seq=12)
        tracer.emit(EV_RESYNC, ts_ns=11.0, core=1, seq=12, replayed=4)
    out = tmp_path / name
    tele.write_artifact(out, command="test", config={"seed": 7}, num_cores=2)
    return out


def _bench_file(tmp_path, name="BENCH_demo.json"):
    path = tmp_path / name
    path.write_text(json.dumps({
        "schema": "scr-repro/bench-artifact/v1",
        "name": "demo",
        "git_sha": "deadbeef",
        "series": {
            "mlffr": {
                "unit": "mpps", "direction": "higher_better",
                "points": [
                    {"x": 1, "median": 9.0, "mad": 0.0},
                    {"x": 2, "median": 16.0, "mad": 0.1},
                    {"x": 4, "median": 26.0, "mad": 0.2},
                ],
            },
            "stringly_x": {
                "unit": "mpps", "direction": "higher_better",
                "points": [
                    {"x": "0.01", "median": 20.0, "mad": 0.0},
                    {"x": "0.02", "median": 18.0, "mad": 0.0},
                ],
            },
        },
    }, sort_keys=True))
    return path


def _hostprof_dir(tmp_path, name="hp1"):
    clock = PhaseClock(enabled=True)
    clock.push("scenario.run")
    clock.push("trace.synthesize")
    clock.pop()
    clock.push("mlffr.search")
    clock.push("sim.run")
    clock.pop()
    clock.pop()
    clock.pop()
    profile = HostProfile.create("profile", {"cores": 2}, clock)
    profile.save(tmp_path / name)
    return tmp_path / name


class TestClassifyInputs:
    def test_splits_dirs_bench_and_hostprof(self, tmp_path):
        art = _artifact_dir(tmp_path)
        bench = _bench_file(tmp_path)
        hp = _hostprof_dir(tmp_path)
        dirs, files, profs = classify_inputs([art, bench, hp])
        assert dirs == [art] and files == [bench]
        assert profs == [hp / "hostprof.json"]

    def test_hostprof_file_classified_by_schema(self, tmp_path):
        hp = _hostprof_dir(tmp_path)
        _, _, profs = classify_inputs([hp / "hostprof.json"])
        assert profs == [hp / "hostprof.json"]

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            classify_inputs([tmp_path / "nope"])

    def test_dir_without_manifest_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError):
            classify_inputs([tmp_path / "empty"])

    def test_json_with_wrong_schema_rejected(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError):
            classify_inputs([bad])


class TestSections:
    def test_faulted_artifact_renders_all_sections(self, tmp_path):
        html = render_report([_artifact_dir(tmp_path), _bench_file(tmp_path)])
        assert "drop-cause Pareto" in html
        assert "recovery SLOs" in html
        assert "sampled packet waterfalls" in html
        assert "bench artifact" in html
        assert "mlffr" in html

    def test_string_x_series_still_charts(self, tmp_path):
        html = render_report([_bench_file(tmp_path)])
        assert html.count("<polyline") == 2

    def test_self_contained(self, tmp_path):
        html = render_report([_artifact_dir(tmp_path)])
        assert "http://" not in html and "https://" not in html
        assert "<script" not in html

    def test_embeds_only_the_basename(self, tmp_path):
        html = render_report([_artifact_dir(tmp_path)])
        assert "run1" in html
        assert str(tmp_path) not in html

    def test_hostprof_panel_renders(self, tmp_path):
        html = render_report([_hostprof_dir(tmp_path)])
        assert "host profile" in html
        assert "host wall-clock Pareto" in html
        assert "phase flamegraph" in html
        assert "class=\"flamegraph\"" in html
        assert "trace.synthesize" in html and "sim.run" in html

    def test_hostprof_render_deterministic(self, tmp_path):
        hp = _hostprof_dir(tmp_path)
        assert render_report([hp]) == render_report([hp])


class TestByteDeterminism:
    def test_render_twice_identical(self, tmp_path):
        inputs = [_artifact_dir(tmp_path), _bench_file(tmp_path)]
        assert render_report(inputs) == render_report(inputs)

    def test_identical_bytes_from_a_copied_tree(self, tmp_path):
        # Same inputs under a different parent directory (the CI serial
        # vs --jobs layout) must render the same bytes.
        art = _artifact_dir(tmp_path / "a")
        bench = _bench_file(tmp_path / "a")
        (tmp_path / "b").mkdir()
        shutil.copytree(art, tmp_path / "b" / art.name)
        shutil.copy(bench, tmp_path / "b" / bench.name)
        first = render_report([art, bench])
        second = render_report(
            [tmp_path / "b" / art.name, tmp_path / "b" / bench.name]
        )
        assert first == second

    def test_write_report_writes_render_output(self, tmp_path):
        art = _artifact_dir(tmp_path)
        out = write_report([art], tmp_path / "r.html")
        assert out.read_text() == render_report([art])


class TestPreSloGrace:
    def _strip_slo(self, art):
        manifest = art / "manifest.json"
        data = json.loads(manifest.read_text())
        assert "slo" in data
        del data["slo"]
        manifest.write_text(json.dumps(data))

    def test_report_notes_missing_slo(self, tmp_path):
        art = _artifact_dir(tmp_path)
        self._strip_slo(art)
        html = render_report([art])
        assert "not recorded" in html

    def test_inspect_notes_missing_slo(self, tmp_path):
        from repro.telemetry.inspect import summarize_artifact

        art = _artifact_dir(tmp_path)
        self._strip_slo(art)
        text = summarize_artifact(art)  # must not raise
        assert "not recorded" in text

    def test_faultfree_artifact_has_no_slo_and_no_note(self, tmp_path):
        art = _artifact_dir(tmp_path, with_faults=False)
        data = json.loads((art / "manifest.json").read_text())
        assert "slo" not in data
        html = render_report([art])
        assert "not recorded" not in html


class TestLegacyInjectedLoss:
    """Artifacts written while Fig. 10b loss had its own event kind
    (``sim.injected_loss``) still inspect and render."""

    def _legacy_dir(self, tmp_path):
        tele = Telemetry()
        tele.tracer.emit(EV_RING_DROP, ts_ns=1.0, core=0, index=2, depth=8)
        for i in (5, 9):
            tele.tracer.emit("sim.injected_loss", ts_ns=float(i), core=i % 2,
                             index=i)
        out = tmp_path / "legacy"
        tele.write_artifact(out, command="mlffr", num_cores=2)
        return out

    def test_inspect_and_report_exit_zero(self, tmp_path):
        import io

        from repro.cli import main

        art = self._legacy_dir(tmp_path)
        text = io.StringIO()
        assert main(["inspect", str(art)], out=text) == 0
        assert "sim.injected_loss" in text.getvalue()
        html_path = tmp_path / "legacy.html"
        assert main(["report", str(art), "--out", str(html_path)],
                    out=io.StringIO()) == 0
        assert "sim.injected_loss" in html_path.read_text()

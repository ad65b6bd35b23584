"""RunSummary: the one reader behind ``inspect`` and ``report``.

``fixtures/summary/`` holds artifacts (an scr run with span sampling, a
shared run with a warm trace cache, a faulted tracer-built artifact, a
hybrid run with two tenants, a BENCH file and a host profile) together
with the ``inspect.txt`` and ``report.html`` the renderers produced before
they shared a summary.  Both must still reproduce them byte for byte.
"""

import io
import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.report import render_report
from repro.telemetry.artifact import RunArtifact
from repro.telemetry.inspect import summarize_artifact
from repro.telemetry.summary import RunSummary, load_run

FIXTURES = Path(__file__).parent / "fixtures" / "summary"
RUNS = ("scr_traced", "shared", "faulted", "hybrid")


@pytest.mark.parametrize("run", RUNS)
def test_inspect_text_is_byte_identical(run, monkeypatch):
    monkeypatch.chdir(FIXTURES)  # the text names the directory as given
    text = summarize_artifact(run) + "\n"
    assert text.encode() == (FIXTURES / run / "inspect.txt").read_bytes()


@pytest.mark.parametrize("inputs, expected", [
    *((run, f"{run}/report.html") for run in RUNS),
    ("bench/BENCH_fig6_scaling.json", "bench/report.html"),
    ("hostprof", "hostprof/report.html"),
])
def test_report_html_is_byte_identical(inputs, expected, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    html = render_report([inputs])
    assert html.encode() == (FIXTURES / expected).read_bytes()


def test_summary_of_faulted_artifact():
    summary, events = load_run(FIXTURES / "faulted")
    assert len(events) == summary.events_retained
    assert [d.kind for d in summary.drops] == [
        "fault.drop", "nic.ring_drop", "nic.wire_drop"]
    assert summary.resyncs == [(1, 2, 6)] and summary.unrecoverable == [0]
    assert summary.first_divergence.cores == [1]
    assert [m.count for m in summary.slo.measures] == [1, 1, 2, 1]
    assert summary.cache is None and not summary.slo_not_recorded


def _set(key, value):
    def damage(manifest):
        return {**manifest, key: value}
    return damage


#: Hand-corrupted manifests: (damage, the field the error must name).
MALFORMED = {
    "slo-measure-number": (_set("slo", {"ttd_ns": 5}), "slo.ttd_ns"),
    "slo-list": (_set("slo", []), "'slo'"),
    "core-snapshot-number": (
        _set("metrics", {"counters": {"cores": [1]}}),
        "metrics.counters.cores[0]"),
    "registry-entry-number": (
        _set("metrics", {"registry": {"placement_promotions": 5}}),
        "metrics.registry.placement_promotions"),
    "config-list": (_set("config", []), "'config'"),
    "metrics-list": (_set("metrics", []), "'metrics'"),
    "top-level-list": (lambda manifest: [], "top level"),
}


@pytest.mark.parametrize("command", ["inspect", "report"])
@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_malformed_manifest_exits_2(tmp_path, shape, command):
    damage, field = MALFORMED[shape]
    art = tmp_path / "faulted"
    shutil.copytree(FIXTURES / "faulted", art)
    manifest = art / "manifest.json"
    manifest.write_text(json.dumps(damage(json.loads(manifest.read_text()))))
    html = tmp_path / "dash.html"
    argv = (["inspect", str(art)] if command == "inspect"
            else ["report", str(art), "--out", str(html)])
    out = io.StringIO()
    code = main(argv, out=out)
    text = out.getvalue()
    assert code == 2
    assert text.count("\n") == 1 and "Traceback" not in text
    assert str(manifest) in text and field in text
    assert not html.exists()


def test_from_artifact_names_the_field():
    artifact = RunArtifact.load(FIXTURES / "faulted")
    artifact.slo = {**artifact.slo, "gaps": [1]}
    with pytest.raises(ValueError, match="field 'slo.gaps' must be an object"):
        RunSummary.from_artifact(artifact, [])

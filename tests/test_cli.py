"""CLI subcommands, exercised through main() with a captured stream."""

import io
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main
from repro.traffic import Trace, read_pcap


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_programs_lists_table1_and_extensions():
    code, text = run_cli(["programs"])
    assert code == 0
    for name in ("ddos", "conntrack", "token_bucket"):
        assert name in text
    assert ("extensions: forwarder, load_balancer, nat, peak_meter, "
            "sampler, spreader, victim_monitor") in text


def test_synthesize_scrt(tmp_path):
    out_file = tmp_path / "t.scrt"
    code, text = run_cli([
        "synthesize", "--workload", "caida", "--flows", "10",
        "--packets", "400", "--out", str(out_file),
    ])
    assert code == 0
    trace = Trace.load(out_file)
    assert len(trace) > 0
    assert str(out_file) in text


def test_synthesize_pcap(tmp_path):
    out_file = tmp_path / "t.pcap"
    code, _ = run_cli([
        "synthesize", "--workload", "univ_dc", "--flows", "5",
        "--packets", "200", "--out", str(out_file),
    ])
    assert code == 0
    assert len(read_pcap(out_file)) > 0


def test_run_verifies_consistency():
    code, text = run_cli([
        "run", "--program", "ddos", "--cores", "3",
        "--workload", "univ_dc", "--flows", "10", "--packets", "300",
    ])
    assert code == 0
    assert "replicas consistent: True" in text
    assert "matches single-threaded reference: True" in text


def test_run_with_loss_recovery():
    code, text = run_cli([
        "run", "--program", "port_knocking", "--cores", "4",
        "--packets", "400", "--loss-rate", "0.05",
    ])
    assert code == 0
    assert "replicas consistent: True" in text


def test_run_from_trace_file(tmp_path):
    out_file = tmp_path / "t.scrt"
    run_cli(["synthesize", "--flows", "8", "--packets", "300",
             "--out", str(out_file)])
    code, text = run_cli([
        "run", "--program", "heavy_hitter", "--cores", "2",
        "--trace-file", str(out_file),
    ])
    assert code == 0
    assert "replicas consistent: True" in text


def test_mlffr_prints_mpps():
    code, text = run_cli([
        "mlffr", "--program", "ddos", "--technique", "scr",
        "--cores", "2", "--packets", "1500",
    ])
    assert code == 0
    assert "Mpps" in text


def test_sweep_with_csv(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code, text = run_cli([
        "sweep", "--program", "ddos", "--techniques", "scr", "rss",
        "--cores", "1", "2", "--packets", "1500", "--csv", str(csv_path),
    ])
    assert code == 0
    assert "scr (Mpps)" in text
    content = csv_path.read_text()
    assert content.startswith("technique,cores,mlffr_mpps")
    assert content.count("\n") == 5  # header + 4 points


def test_hardware_capacity():
    code, text = run_cli(["hardware", "--rows", "64"])
    assert code == 0
    assert "44 32-bit history fields" in text
    assert "2637 LUTs" in text
    assert "timing @250 MHz: met" in text


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_program():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--program", "bogus"])


def test_validate_subcommand():
    code, text = run_cli(["validate", "--program", "token_bucket",
                          "--packets", "300"])
    assert code == 0
    assert "SCR-safe" in text


def test_validate_all_registered_programs():
    from repro.programs import program_names

    for name in program_names():
        code, _ = run_cli(["validate", "--program", name, "--packets", "200"])
        assert code == 0, name


def test_reproduce_list():
    code, text = run_cli(["reproduce", "list"])
    assert code == 0
    assert "Figure 6e" in text and "Figure 10a" in text


def test_reproduce_unknown_figure():
    code, text = run_cli(["reproduce", "99z"])
    assert code == 2
    assert "unknown figure" in text


@pytest.mark.parametrize("argv,message", [
    (["reproduce", "10a", "--packets", "0"], "need at least one packet"),
    (["run", "--packets", "0"], "need at least one packet"),
    (["run", "--cores", "0"], "need at least one core"),
])
def test_out_of_range_flags_exit_2(argv, message):
    code, text = run_cli(argv)
    assert code == 2
    assert text.startswith("error: ") and message in text


def test_reproduce_figure_with_csv(tmp_path):
    csv_path = tmp_path / "fig1.csv"
    code, text = run_cli(["reproduce", "1", "--packets", "1500",
                          "--csv", str(csv_path)])
    assert code == 0
    assert "Figure 1" in text
    assert csv_path.read_text().startswith("cores,scr")


def test_run_rejects_missing_trace_file(tmp_path):
    code, text = run_cli(["run", "--program", "ddos",
                          "--trace-file", str(tmp_path / "missing.scrt")])
    assert code == 2
    assert text.strip().splitlines() == [
        f"error: cannot read trace file {tmp_path / 'missing.scrt'}: "
        "No such file or directory"]


def test_run_rejects_garbage_trace_file(tmp_path):
    bad = tmp_path / "garbage.scrt"
    bad.write_bytes(b"not a trace at all")
    code, text = run_cli(["run", "--program", "ddos", "--trace-file", str(bad)])
    assert code == 2
    assert text.strip() == (f"error: cannot read trace file {bad}: "
                            "not an SCRT trace file")


def _damaged(path, damage):
    """``path`` with its bytes damaged: cut short, or its first packet's
    capture shrunk below an Ethernet header."""
    data = path.read_bytes()
    if damage == "truncated":
        return data[:len(data) // 2 + 3]
    if path.suffix == ".pcap":  # 24-byte global header, then a record
        import struct
        return data[:24] + struct.pack("<IIII", 0, 0, 4, 64) + b"\0" * 4
    return data[:8] + b"\xff" * 4 + data[12:]  # SCRT: bad version


@pytest.mark.parametrize("suffix", [".pcap", ".scrt"])
@pytest.mark.parametrize("damage", ["truncated", "corrupt", "missing"])
def test_run_damaged_trace_file_exits_2(tmp_path, suffix, damage):
    """A missing, truncated or corrupt --trace-file is a one-line error
    and exit 2, not a traceback, in either format."""
    good = tmp_path / f"good{suffix}"
    code, _ = run_cli(["synthesize", "--flows", "4", "--packets", "60",
                       "--out", str(good)])
    assert code == 0
    bad = tmp_path / f"bad{suffix}"
    if damage != "missing":
        bad.write_bytes(_damaged(good, damage))
    code, text = run_cli(["run", "--program", "ddos", "--trace-file", str(bad)])
    assert code == 2
    lines = text.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: cannot read trace file {bad}: ")


# -- telemetry (--telemetry DIR and the inspect subcommand) ----------------------


def test_run_with_telemetry_writes_artifact(tmp_path):
    tdir = tmp_path / "tele"
    code, text = run_cli([
        "run", "--program", "port_knocking", "--cores", "2",
        "--packets", "300", "--telemetry", str(tdir),
    ])
    assert code == 0
    assert "telemetry artifact" in text
    for name in ("manifest.json", "events.jsonl", "trace.json", "metrics.prom"):
        assert (tdir / name).exists()

    from repro.telemetry import RunArtifact

    art = RunArtifact.load(tdir)
    assert art.command == "run"
    assert art.config["program"] == "port_knocking"
    assert art.num_cores == 2
    assert art.metrics["registry"]["packets_offered"]["value"] == 300
    assert art.metrics["registry"]["replicas_consistent"]["value"] == 1.0


def test_mlffr_with_telemetry_records_probes(tmp_path):
    tdir = tmp_path / "tele"
    code, text = run_cli([
        "mlffr", "--program", "ddos", "--workload", "caida",
        "--cores", "2", "--packets", "600", "--telemetry", str(tdir),
    ])
    assert code == 0
    assert "Mpps" in text

    from repro.telemetry import RunArtifact

    art = RunArtifact.load(tdir)
    assert art.event_type_counts.get("mlffr.probe", 0) >= 3
    assert "counters" in art.metrics
    assert "latency_ns" in art.metrics


def test_mlffr_without_telemetry_stays_quiet(capsys):
    code, text = run_cli([
        "mlffr", "--program", "ddos", "--workload", "caida",
        "--cores", "2", "--packets", "600",
    ])
    assert code == 0
    assert "telemetry artifact" not in text


def test_inspect_summarizes_artifact(tmp_path):
    tdir = tmp_path / "tele"
    run_cli([
        "mlffr", "--program", "ddos", "--workload", "caida",
        "--cores", "2", "--packets", "600", "--telemetry", str(tdir),
    ])
    code, text = run_cli(["inspect", str(tdir)])
    assert code == 0
    assert "per-core time attribution" in text
    assert "mlffr_mpps" in text
    assert "p99" in text


def test_inspect_missing_artifact(tmp_path):
    code, text = run_cli(["inspect", str(tmp_path / "nope")])
    assert code == 2
    assert "no run artifact" in text


def test_inspect_empty_directory(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, text = run_cli(["inspect", str(empty)])
    assert code == 2
    assert "empty" in text
    assert "--telemetry" in text
    assert "Traceback" not in text


def test_inspect_directory_without_manifest(tmp_path):
    tdir = tmp_path / "tele"
    tdir.mkdir()
    (tdir / "events.jsonl").write_text("{}\n")
    code, text = run_cli(["inspect", str(tdir)])
    assert code == 2
    assert "no manifest.json" in text


def test_inspect_corrupt_manifest(tmp_path):
    tdir = tmp_path / "tele"
    tdir.mkdir()
    (tdir / "manifest.json").write_text("{not json")
    code, text = run_cli(["inspect", str(tdir)])
    assert code == 2
    assert "malformed" in text


def test_report_renders_artifact_dashboard(tmp_path):
    tdir = tmp_path / "tele"
    run_cli([
        "mlffr", "--program", "ddos", "--workload", "caida",
        "--cores", "2", "--packets", "600", "--telemetry", str(tdir),
        "--trace-sample", "0.2",
    ])
    out = tmp_path / "dash.html"
    code, text = run_cli(["report", str(tdir), "--out", str(out)])
    assert code == 0
    assert str(out) in text
    html = out.read_text()
    assert "drop-cause Pareto" in html or "no drops recorded" in html
    assert "sampled packet waterfalls" in html


def test_report_rejects_bad_input(tmp_path):
    code, text = run_cli([
        "report", str(tmp_path / "nope"),
        "--out", str(tmp_path / "dash.html"),
    ])
    assert code == 2
    assert "report error" in text
    assert not (tmp_path / "dash.html").exists()


@pytest.fixture(scope="module")
def traced_artifact(tmp_path_factory):
    tdir = tmp_path_factory.mktemp("traced") / "tele"
    code, _ = run_cli([
        "mlffr", "--program", "ddos", "--workload", "caida",
        "--cores", "2", "--packets", "600", "--telemetry", str(tdir),
        "--trace-sample", "0.2",
    ])
    assert code == 0
    return tdir


def test_inspect_accepts_manifest_path(traced_artifact):
    code, text = run_cli(["inspect", str(traced_artifact / "manifest.json")])
    assert code == 0, text
    assert "error" not in text and "no run artifact" not in text


def _damaged_copy(src, dst, damage):
    shutil.copytree(src, dst)
    events = dst / "events.jsonl"
    lines = events.read_text().splitlines(keepends=True)
    if damage == "truncated":
        events.write_text("".join(lines[:38]))
    else:
        lines[5] = lines[5][: len(lines[5]) // 2] + "\n"
        events.write_text("".join(lines))
    return dst


@pytest.mark.parametrize("damage, message", [
    ("truncated", "holds 38 events but the manifest retained"),
    ("torn-line", "line 6 is not valid JSON"),
])
@pytest.mark.parametrize("command", ["inspect", "report"])
def test_damaged_event_log_exits_2(traced_artifact, tmp_path, command,
                                   damage, message):
    tdir = _damaged_copy(traced_artifact, tmp_path / "tele", damage)
    out = tmp_path / "dash.html"
    argv = ["inspect", str(tdir)] if command == "inspect" else [
        "report", str(tdir), "--out", str(out)]
    code, text = run_cli(argv)
    assert code == 2
    assert "error: " in text and message in text
    assert not out.exists()


# -- bench (perf-regression suite and compare gate) ------------------------------


def test_bench_list():
    code, text = run_cli(["bench", "--list"])
    assert code == 0
    for name in ("fig6_scaling", "engine_mlffr", "tail_latency",
                 "fig11_model_fit"):
        assert name in text


def test_bench_unknown_suite(tmp_path):
    code, text = run_cli(["bench", "--suite", "bogus",
                          "--out", str(tmp_path)])
    assert code == 2
    assert "unknown suite" in text


def test_bench_rejects_zero_reps(tmp_path):
    code, text = run_cli(["bench", "--suite", "fig11_model_fit",
                          "--reps", "0", "--out", str(tmp_path)])
    assert code == 2
    assert "--reps" in text


def test_bench_runs_suite_and_compares(tmp_path):
    from repro.perf import BENCH_SCHEMA, BenchArtifact

    old = tmp_path / "old"
    code, text = run_cli(["bench", "--suite", "fig11_model_fit",
                          "--reps", "1", "--out", str(old)])
    assert code == 0
    path = old / "BENCH_fig11_model_fit.json"
    assert path.exists()
    assert str(path) in text
    art = BenchArtifact.load(path)
    assert art.schema == BENCH_SCHEMA
    assert art.seed_policy["rep_seeds"] == [7]

    # A repeat run of the same code compares clean (exit 0).
    new = tmp_path / "new"
    code, _ = run_cli(["bench", "--suite", "fig11_model_fit",
                       "--reps", "1", "--out", str(new)])
    assert code == 0
    md = tmp_path / "report.md"
    code, text = run_cli(["bench", "--compare", str(old), str(new),
                          "--markdown", str(md)])
    assert code == 0
    assert "Overall: NEUTRAL" in text
    assert "Overall: NEUTRAL" in md.read_text()

    # A synthetic 10 % throughput regression trips the gate (exit 1).
    art = BenchArtifact.load(new / "BENCH_fig11_model_fit.json")
    scr = art.series["scr"]
    for p in scr.points:
        p.median *= 0.9
        p.reps = [v * 0.9 for v in p.reps]
    art.save(new)
    code, text = run_cli(["bench", "--compare", str(old), str(new)])
    assert code == 1
    assert "REGRESSION" in text


def test_bench_compare_schema_mismatch(tmp_path):
    from repro.perf import BenchArtifact

    from tests.perf.test_compare import artifact

    artifact({1: 9.0}).save(tmp_path / "old")
    bad = artifact({1: 9.0})
    bad.schema = "scr-repro/bench-artifact/v999"
    bad.save(tmp_path / "new")
    code, text = run_cli(["bench", "--compare", str(tmp_path / "old"),
                          str(tmp_path / "new")])
    assert code == 2
    assert "schema" in text


FIG6_BASELINE = (Path(__file__).parents[1] / "benchmarks" / "baselines"
                 / "BENCH_fig6_scaling.json")


def _set(keys, value):
    def damage(data):
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return data
    return damage


#: Right schema, wrong shape: each damages the committed fig6 baseline.
MALFORMED = {
    "top-level-list": lambda data: [data],
    "series-list": lambda data: {**data,
                                 "series": list(data["series"].values())},
    "series-entry-string": _set(("series", "scr"), "scr"),
    "points-null": _set(("series", "scr", "points"), None),
    "median-string": _set(("series", "scr", "points", 0, "median"), "x"),
    "mad-null": _set(("series", "scr", "points", 0, "mad"), None),
}


@pytest.mark.parametrize("command", ["compare", "report", "advise"])
@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_malformed_bench_artifact_exits_2(tmp_path, shape, command):
    bad = tmp_path / "BENCH_fig6_scaling.json"
    bad.write_text(json.dumps(
        MALFORMED[shape](json.loads(FIG6_BASELINE.read_text()))))
    argv = {
        "compare": ["bench", "--compare", str(FIG6_BASELINE), str(bad)],
        "report": ["report", str(bad), "--out", str(tmp_path / "dash.html")],
        "advise": ["advise", "--program", "ddos", "--bench", str(bad)],
    }[command]
    code, text = run_cli(argv)
    assert code == 2
    assert text.startswith(f"{command} error: ") and text.count("\n") == 1
    assert str(bad) in text
    assert not (tmp_path / "dash.html").exists()


#: JSON values of every kind, to retype a field with.
_JSON_VALUES = ("x", 7, 1.5, True, None, [], [1], {}, {"a": 1})


def _shaped_fields(data):
    """Every field of a bench artifact whose JSON type the loader checks:
    ``(path, allowed kinds, required)``, where a required field cannot be
    dropped either."""
    number, optional = (int, float), (dict, type(None))
    fields = [((key,), (str,), False) for key in
              ("name", "git_sha", "created_utc", "python", "platform", "schema")]
    fields += [((key,), (dict,), False) for key in
               ("config", "seed_policy", "series", "table4_params")]
    fields += [(("model_fit",), optional, False), (("profile",), optional, False)]
    for name, series in data["series"].items():
        at = ("series", name)
        fields += [(at, (dict,), False), (at + ("unit",), (str,), False),
                   (at + ("direction",), (str,), False),
                   (at + ("noise_floor",), number, False),
                   (at + ("points",), (list,), False)]
        for i, point in enumerate(series["points"]):
            pt = at + ("points", i)
            fields += [(pt, (dict,), False), (pt + ("x",), (int, str), True),
                       (pt + ("median",), number, True),
                       (pt + ("mad",), number, True), (pt + ("reps",), (list,), False)]
            fields += [(pt + ("reps", j), number, False)
                       for j in range(len(point["reps"]))]
    for program, row in data["table4_params"].items():
        fields.append((("table4_params", program), (dict,), False))
        fields += [(("table4_params", program, cost), number, True) for cost in row]
    return fields


_FIG6_TEXT = FIG6_BASELINE.read_text()
_FIG6_FIELDS = _shaped_fields(json.loads(_FIG6_TEXT))


def _dropped(path):
    def damage(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return data
    return damage


@st.composite
def _damaged_fig6(draw):
    """The fig6 baseline's text with one field retyped or dropped, or
    the text truncated."""
    how = draw(st.sampled_from(("retype", "drop", "truncate")))
    if how == "truncate":
        return _FIG6_TEXT[:draw(st.integers(0, len(_FIG6_TEXT.rstrip()) - 1))]
    if how == "drop":
        path = draw(st.sampled_from([p for p, _, required in _FIG6_FIELDS
                                     if required]))
        damage = _dropped(path)
    else:
        path, kinds, _ = draw(st.sampled_from(_FIG6_FIELDS))
        damage = _set(path, draw(st.sampled_from(
            [v for v in _JSON_VALUES
             if isinstance(v, bool) or not isinstance(v, kinds)])))
    return json.dumps(damage(json.loads(_FIG6_TEXT)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_damaged_fig6())
def test_damaged_bench_artifact_exits_2(tmp_path, text):
    """Retyped, dropped or truncated fields of a bench artifact make both
    of its readers that measure nothing exit 2 with one error line
    naming the file, never a traceback."""
    bad = tmp_path / "BENCH_fig6_scaling.json"
    bad.write_text(text)
    for command, argv in (
        ("compare", ["bench", "--compare", str(FIG6_BASELINE), str(bad)]),
        ("advise", ["advise", "--program", "ddos", "--bench", str(bad)]),
    ):
        code, out = run_cli(argv)
        assert code == 2, out
        assert out.startswith(f"{command} error: ") and out.count("\n") == 1
        assert str(bad) in out


def test_bench_compare_missing_path(tmp_path):
    code, text = run_cli(["bench", "--compare", str(tmp_path / "a"),
                          str(tmp_path / "b")])
    assert code == 2
    assert "compare error" in text

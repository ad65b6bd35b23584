"""Suite runs: artifact shape, determinism, acceptance-criteria checks."""

import pytest

from repro.perf import (
    BENCH_SCHEMA,
    SuiteParams,
    compare_artifacts,
    run_suite,
    suite_names,
)


#: One repetition keeps suite tests fast; median-of-1 is the value itself.
PARAMS = SuiteParams(reps=1, quick=True)


def test_suite_names_stable():
    assert suite_names() == [
        "advisor_validation", "engine_mlffr", "faults_recovery",
        "fig11_model_fit", "fig6_scaling", "multitenant", "obs_overhead",
        "tail_latency",
    ]


def test_unknown_suite_rejected():
    with pytest.raises(KeyError, match="unknown bench suite"):
        run_suite("nope", PARAMS)


def test_rep_seeds_derive_from_base():
    p = SuiteParams(reps=3, base_seed=11)
    assert p.rep_seeds == [11, 12, 13]
    assert p.seed_policy()["base_seed"] == 11


@pytest.fixture(scope="module")
def fig11():
    return run_suite("fig11_model_fit", PARAMS)


def test_fig11_artifact_shape(fig11):
    assert fig11.schema == BENCH_SCHEMA
    assert fig11.seed_policy["rep_seeds"] == [7]
    assert "token_bucket" in fig11.table4_params
    scr = fig11.series["scr"]
    assert scr.unit == "mpps"
    assert scr.noise_floor == pytest.approx(0.4)
    assert [p.x for p in scr.points] == [1, 2, 4]
    assert all(p.median > 0 for p in scr.points)


def test_fig11_residuals_reported_per_core_count(fig11):
    residuals = fig11.model_fit["residuals"]
    assert set(residuals) == {"1", "2", "4"}
    for row in residuals.values():
        # Simulator and analytic model agree within the MLFFR window.
        assert abs(row["residual"]) < 0.10
    drift = fig11.series["abs_model_residual"]
    assert drift.direction == "lower_better"
    assert [p.x for p in drift.points] == [1, 2, 4]


def test_fig11_deterministic_repeat_compares_neutral(fig11):
    again = run_suite("fig11_model_fit", PARAMS)
    for name, series in fig11.series.items():
        assert [p.reps for p in again.series[name].points] == \
            [p.reps for p in series.points]
    res = compare_artifacts(fig11, again)
    assert res.verdict == "neutral"


def test_advisor_validation_agreement():
    art = run_suite("advisor_validation", PARAMS)
    agreement = art.series["agreement"]
    assert agreement.unit == "bool"
    # Acceptance: the advisor's pick matches measurement for >= 10 of the
    # 12 registered programs (it currently matches all 12).
    agreed = sum(p.median for p in agreement.points)
    assert agreed >= 10, art.config["predicted"]
    assert len(agreement.points) == len(art.config["predicted"]) == 12
    # Every measured technique series carries real throughput numbers.
    for name in ("scr", "shared"):
        assert all(p.median > 0 for p in art.series[name].points)


def test_fig6_profile_and_residuals():
    art = run_suite("fig6_scaling", PARAMS)
    assert set(art.series) == {"scr", "shared", "rss", "rss++"}
    # Acceptance: >= 95 % of busy time attributed to d/c1/c2/contention.
    totals = art.profile["totals"]
    attributed = (totals["dispatch_ns"] + totals["current_compute_ns"]
                  + totals["history_ns"] + totals["contention_ns"])
    assert attributed / totals["busy_ns"] >= 0.95
    assert totals["coverage"] >= 0.95
    # Acceptance: SCR residual vs Appendix A reported per core count.
    assert set(art.model_fit["residuals"]) == \
        {str(k) for k in art.config["cores"]}
    # SCR still scales in the quick grid (the shape the gate protects).
    scr = {p.x: p.median for p in art.series["scr"].points}
    assert scr[4] > 2.0 * scr[1]


def test_fig6_parallel_identical_to_serial(tmp_path):
    """Acceptance: fig6_scaling with --jobs 4 matches --jobs 1 exactly."""
    serial = run_suite("fig6_scaling", PARAMS)
    par = run_suite(
        "fig6_scaling",
        SuiteParams(reps=1, quick=True, jobs=4,
                    cache_dir=str(tmp_path / "cache")),
    )
    for name, series in serial.series.items():
        assert [(p.x, p.median, p.reps) for p in par.series[name].points] == \
            [(p.x, p.median, p.reps) for p in series.points], name
    assert par.model_fit == serial.model_fit
    assert par.profile == serial.profile


def test_save_uses_bench_naming(tmp_path, fig11):
    path = fig11.save(tmp_path)
    assert path.name == "BENCH_fig11_model_fit.json"


def test_obs_overhead_gates_the_traced_cpu_ratio(tmp_path, monkeypatch):
    """The suite keeps its traced MLFFR equal to the untraced one, records
    the kept spans, artifact size and traced/untraced CPU-time ratio, and
    fails ``scr-repro bench`` (exit 1, artifact still written) once a
    ratio passes the ceiling — forced here by a zero ceiling."""
    import io

    import repro.perf.suite as suite
    from repro.cli import main
    from repro.perf import BenchArtifact

    monkeypatch.setattr(suite, "TRACED_CPU_CEILING", 0.0)
    out = io.StringIO()
    code = main(["bench", "--suite", "obs_overhead", "--reps", "1",
                 "--out", str(tmp_path)], out=out)
    assert code == 1
    assert out.getvalue().strip().splitlines()[-1].startswith(
        "error: obs_overhead: a traced search took ")
    art = BenchArtifact.load(tmp_path / "BENCH_obs_overhead.json")
    assert set(art.series) == {"untraced_mpps", "traced_delta_mpps",
                               "span_events", "artifact_mb",
                               "traced_cpu_ratio"}
    assert all(p.median == 0.0 for p in art.series["traced_delta_mpps"].points)
    assert all(p.median > 1.0 for p in art.series["traced_cpu_ratio"].points)
    assert all(0.0 < p.median < 5.0 for p in art.series["artifact_mb"].points)

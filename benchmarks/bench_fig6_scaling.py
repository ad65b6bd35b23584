"""Figure 6: throughput vs cores for four programs × two traces × four
techniques (the paper's main result grid).

Paper result: SCR is the only technique that scales monotonically in every
panel; lock-based sharing collapses at ≥3 cores; sharding (RSS/RSS++) is
capped near a single core's rate by the heaviest flows; SCR beats hardware
atomics for the counter programs.

Panel definitions live in ``repro.bench.figures`` (shared with the
``scr-repro reproduce`` CLI).
"""

import pytest

from benchmarks.conftest import BENCH_WORKLOAD, emit
from repro.bench import render_scaling_series
from repro.bench.figures import FIGURE_PRESETS, run_preset

PANELS = ["6a", "6b", "6c", "6d", "6e", "6f", "6g", "6h"]


@pytest.mark.benchmark(group="fig6")
@pytest.mark.parametrize("panel", PANELS)
def test_fig6_panel(benchmark, executor, panel):
    preset = FIGURE_PRESETS[panel]

    series = benchmark.pedantic(
        run_preset, args=(preset, executor), kwargs=BENCH_WORKLOAD,
        rounds=1, iterations=1,
    )
    emit(render_scaling_series(
        series, title=f"Figure {panel} — {preset.program} on {preset.trace} (Mpps)"
    ))

    cores = list(preset.cores)
    scr = dict(series["scr"])
    shared = dict(series["shared"])
    rss = dict(series["rss"])
    kmax = cores[-1]

    # SCR scales monotonically (±3 % MLFFR noise) in every panel.
    values = [scr[k] for k in cores]
    assert all(b >= a * 0.97 for a, b in zip(values, values[1:])), panel
    assert scr[kmax] > 2.5 * scr[1]
    # SCR is the best technique at the highest core count.
    assert scr[kmax] >= max(shared[kmax], rss[kmax], dict(series["rss++"])[kmax])
    # Sharding is capped by the heaviest flow: far from linear.
    assert rss[kmax] < 0.5 * kmax * rss[1]
    # Lock-based sharing collapses with cores; atomics stay sublinear.
    if preset.program in ("token_bucket", "port_knocking"):
        assert shared[kmax] < shared[2], panel

"""Figure 7: TCP connection tracking on the hyperscalar DC trace.

Paper result: SCR scales linearly to 7 cores; shared locks collapse; RSS
and RSS++ (with symmetric hashing) are limited by flow skew.  The grid is
``FIGURE_PRESETS["7"]`` (256 B frames budget the history in-frame).
"""

import pytest

from benchmarks.conftest import BENCH_WORKLOAD, emit
from repro.bench import render_scaling_series
from repro.bench.figures import FIGURE_PRESETS, run_preset


@pytest.mark.benchmark(group="fig7")
def test_fig7_conntrack_hyperscalar(benchmark, executor):
    series = benchmark.pedantic(
        run_preset, args=(FIGURE_PRESETS["7"], executor), kwargs=BENCH_WORKLOAD,
        rounds=1, iterations=1,
    )
    emit(render_scaling_series(
        series, title="Figure 7 — conntrack on hyperscalar DC trace (Mpps)"
    ))

    scr = dict(series["scr"])
    shared = dict(series["shared"])
    rss = dict(series["rss"])
    rsspp = dict(series["rss++"])

    assert scr[7] > 2.5 * scr[1]
    assert scr[7] > max(shared[7], rss[7], rsspp[7])
    assert shared[7] < shared[2]  # lock collapse
    assert rss[7] < 0.5 * 7 * rss[1]  # skew-capped sharding

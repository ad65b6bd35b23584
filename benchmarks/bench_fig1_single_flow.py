"""Figure 1: scaling a SINGLE TCP connection's conntrack throughput.

Paper result: shared state degrades beyond 2 cores; RSS/RSS++ cannot exceed
one core; SCR scales linearly.  The grid is ``FIGURE_PRESETS["1"]`` (256 B
frames budget the history in-frame).
"""

import pytest

from benchmarks.conftest import BENCH_WORKLOAD, emit
from repro.bench import render_scaling_series
from repro.bench.figures import FIGURE_PRESETS, run_preset


@pytest.mark.benchmark(group="fig1")
def test_fig1_single_tcp_connection(benchmark, executor):
    series = benchmark.pedantic(
        run_preset, args=(FIGURE_PRESETS["1"], executor), kwargs=BENCH_WORKLOAD,
        rounds=1, iterations=1,
    )
    emit(render_scaling_series(
        series,
        title="Figure 1 — conntrack, single TCP connection (Mpps)",
    ))

    scr = dict(series["scr"])
    rss = dict(series["rss"])
    rsspp = dict(series["rss++"])
    shared = dict(series["shared"])
    # SCR: linear scale-up on one flow.
    assert scr[7] > 2.5 * scr[1]
    # Sharding: pinned to a single core regardless of core count.
    assert rss[7] < 1.3 * rss[1]
    assert rsspp[7] < 1.3 * rsspp[1]
    # Shared locks: degraded beyond 2 cores.
    assert shared[7] < shared[2]
    # SCR wins outright at 7 cores.
    assert scr[7] > max(rss[7], rsspp[7], shared[7])

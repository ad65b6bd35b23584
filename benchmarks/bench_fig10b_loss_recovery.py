"""Figure 10b: cost of SCR's loss-recovery algorithm.

Port-knocking firewall on the univ-DC trace.  Paper result: merely enabling
recovery (logging) costs some throughput; higher loss rates cost more
(log reads + catch-up); but SCR with recovery at 1 % loss still
outperforms and outscales shared state and sharding.  Loss is a
``FaultSpec`` drop rate between the sequencer and the cores, so every
MLFFR probe sees the same drop schedule.
"""

import pytest

from benchmarks.conftest import BENCH_WORKLOAD, emit
from repro.bench import render_scaling_series
from repro.bench.figures import SCR_IN_FRAME, scaling_series
from repro.faults import FaultSpec
from repro.scenario import scenario_grid

CORES = [1, 2, 4, 7, 10, 14]
LOSS_RATES = [0.0, 0.0001, 0.001, 0.01]


@pytest.mark.benchmark(group="fig10b")
def test_fig10b_loss_recovery_overhead(benchmark, executor):
    def measure(techniques, **kwargs):
        grid = scenario_grid("port_knocking", "univ_dc", techniques, CORES,
                             **kwargs, **BENCH_WORKLOAD)
        return scaling_series(executor.run(grid))

    def run():
        # 192 B frames budget the history in-frame.
        series = {"scr (no recovery)": measure(
            ["scr"], engine_kwargs_by_technique={"scr": SCR_IN_FRAME})["scr"]}
        recovery = {"scr": {**SCR_IN_FRAME, "with_recovery": True}}
        for loss in LOSS_RATES:
            faults = FaultSpec.create(seed=BENCH_WORKLOAD["seed"], drop_rate=loss)
            series[f"scr+rec {loss:.2%} loss"] = measure(
                ["scr"], engine_kwargs_by_technique=recovery, faults=faults
            )["scr"]
        series.update(measure(["shared", "rss", "rss++"]))
        return series

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(render_scaling_series(
        series, title="Figure 10b — port knocking with loss recovery (Mpps)"
    ))

    plain = dict(series["scr (no recovery)"])
    rec0 = dict(series["scr+rec 0.00% loss"])
    rec1pct = dict(series["scr+rec 1.00% loss"])

    # Logging alone costs throughput even with zero loss.
    assert rec0[14] < plain[14]
    # Higher loss degrades further (within MLFFR tolerance).
    assert rec1pct[14] <= rec0[14] + 0.5
    # Recovery-enabled SCR still beats every existing technique.
    for tech in ("shared", "rss", "rss++"):
        assert rec1pct[14] > dict(series[tech])[14], tech
    # And still scales monotonically.
    values = [rec1pct[k] for k in CORES]
    assert all(b >= a * 0.97 for a, b in zip(values, values[1:]))

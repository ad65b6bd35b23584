"""Figure 11 + Table 4: the Appendix A throughput model vs measurement.

Prints the Table 4 parameters and, for each of the five programs, the
model-predicted vs simulator-measured SCR throughput across cores.  Paper
result: the model k/(t + (k-1)·c2) matches the measurements well.
"""

import pytest

from benchmarks.conftest import BENCH_WORKLOAD, emit
from repro.bench import predicted_scr_mpps, render_table
from repro.bench.figures import CORES_7
from repro.cpu import TABLE4_PARAMS
from repro.scenario import scenario_grid

PROGRAMS_TRACES = [
    ("ddos", "univ_dc"),
    ("heavy_hitter", "univ_dc"),
    ("token_bucket", "univ_dc"),
    ("port_knocking", "univ_dc"),
    ("conntrack", "hyperscalar_dc"),
]


@pytest.mark.benchmark(group="fig11")
def test_table4_parameters(benchmark):
    def run():
        return {
            name: TABLE4_PARAMS[name]
            for name, _ in PROGRAMS_TRACES
        }

    params = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(render_table(
        ["program", "t (ns)", "c2 (ns)", "d (ns)", "c1 (ns)", "t/c2"],
        [
            [n, f"{p.t:.0f}", f"{p.c2:.0f}", f"{p.d:.0f}", f"{p.c1:.0f}",
             f"{p.t / p.c2:.1f}"]
            for n, p in params.items()
        ],
        title="Table 4 — throughput model parameters",
    ))
    # The paper notes t is 4.3–9.4× c2 across programs.
    ratios = [p.t / p.c2 for p in params.values()]
    assert min(ratios) > 4.0 and max(ratios) < 10.0


@pytest.mark.benchmark(group="fig11")
@pytest.mark.parametrize("program,trace", PROGRAMS_TRACES)
def test_fig11_predicted_vs_measured(benchmark, executor, program, trace):
    def run():
        grid = scenario_grid(program, trace, ["scr"], CORES_7, **BENCH_WORKLOAD)
        return {r.scenario.cores: r.mlffr_mpps for r in executor.run(grid)}

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for k in CORES_7:
        predicted = predicted_scr_mpps(TABLE4_PARAMS[program], k)
        rows.append([k, f"{predicted:.2f}", f"{measured[k]:.2f}",
                     f"{measured[k] / predicted:.2f}"])
    emit(render_table(
        ["cores", "model (Mpps)", "measured (Mpps)", "ratio"],
        rows,
        title=f"Figure 11 — {program} on {trace}: model vs measured",
    ))
    for k in CORES_7:
        predicted = predicted_scr_mpps(TABLE4_PARAMS[program], k)
        assert measured[k] == pytest.approx(predicted, rel=0.17), k

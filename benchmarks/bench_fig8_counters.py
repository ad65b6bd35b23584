"""Figure 8: hardware performance counters for the token bucket program.

Paper result, as offered load rises at 2/4/7 cores on the univ-DC trace:
lock-based sharing shows depressed L2 hit ratios and ballooning program
latency from lock/cache-line contention; sharding shows high IPC at 2 cores
that drops (with wide min–max spread) at more cores because load is
imbalanced and idle cores poll; SCR keeps IPC consistently high, pays
higher program latency than RSS (history processing), and keeps L2 hits
high (private replicas never bounce).
"""

import pytest

from benchmarks.conftest import BENCH_WORKLOAD, emit
from repro.bench import render_table
from repro.cpu import simulate
from repro.parallel import make_engine
from repro.programs import make_program
from repro.scenario import Scenario

TECHNIQUES = ["scr", "shared", "rss", "rss++"]
CORE_COUNTS = [2, 4, 7]
OFFERED_MPPS = [2, 6, 10]


@pytest.mark.benchmark(group="fig8")
def test_fig8_pcm_counters(benchmark, executor):
    def run():
        spec = Scenario.create("token_bucket", "univ_dc", "scr", 1,
                               **BENCH_WORKLOAD).trace
        pt = executor.builder.perf_trace("token_bucket", spec)
        rows = []
        for cores in CORE_COUNTS:
            for offered in OFFERED_MPPS:
                for tech in TECHNIQUES:
                    engine = make_engine(tech, make_program("token_bucket"), cores)
                    res = simulate(pt, offered * 1e6, engine)
                    ipc_lo, ipc_hi = res.counters.ipc_wall_min_max(res.duration_ns)
                    rows.append({
                        "cores": cores,
                        "offered": offered,
                        "tech": tech,
                        "l2_hit": res.counters.mean_l2_hit_ratio(),
                        "ipc": res.counters.mean_ipc_wall(res.duration_ns),
                        "ipc_spread": ipc_hi - ipc_lo,
                        "latency": res.counters.mean_compute_latency_ns(),
                    })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(render_table(
        ["cores", "offered (Mpps)", "technique", "L2 hit", "IPC", "IPC spread", "latency (ns)"],
        [
            [r["cores"], r["offered"], r["tech"], f"{r['l2_hit']:.3f}",
             f"{r['ipc']:.2f}", f"{r['ipc_spread']:.2f}", f"{r['latency']:.0f}"]
            for r in rows
        ],
        title="Figure 8 — token bucket on univ DC: simulated PCM counters",
    ))

    def pick(cores, offered, tech):
        return next(
            r for r in rows
            if r["cores"] == cores and r["offered"] == offered and r["tech"] == tech
        )

    for offered in OFFERED_MPPS:
        for cores in CORE_COUNTS:
            scr = pick(cores, offered, "scr")
            shared = pick(cores, offered, "shared")
            rss = pick(cores, offered, "rss")
            # (a-c) locks depress L2 hit ratio vs both SCR and RSS.
            assert shared["l2_hit"] <= scr["l2_hit"] + 1e-9
            # (g-i) lock latency far above SCR; SCR above RSS (history work).
            assert shared["latency"] > scr["latency"]
            assert scr["latency"] > rss["latency"]

    # (d-f) IPC rises with offered load for SCR (cores get busier).
    for cores in CORE_COUNTS:
        series = [pick(cores, o, "scr")["ipc"] for o in OFFERED_MPPS]
        assert series[-1] > series[0]

    # Sharding's cross-core IPC spread exceeds SCR's at high core counts —
    # the imbalance signature (idle cores polling).
    assert pick(7, 10, "rss")["ipc_spread"] > pick(7, 10, "scr")["ipc_spread"]

"""Figure 10a: SCR's byte overhead makes the NIC the bottleneck first.

Token bucket on the univ-DC trace with all packets truncated to 64 bytes;
SCR alone adds its history metadata before the NIC (ToR-switch sequencer),
the other techniques feed bare 64-byte frames.  Paper result: beyond ~11
cores the wire, not the CPU, caps SCR — but SCR still saturates far above
every other technique.  The grid is ``FIGURE_PRESETS["10a"]``, swept to 18
cores to show the wire ceiling clearly.
"""

import pytest

from benchmarks.conftest import BENCH_WORKLOAD, emit
from repro.bench import render_scaling_series
from repro.bench.figures import FIGURE_PRESETS, run_preset
from repro.core import ScrPacketCodec
from repro.cpu import TABLE4_PARAMS
from repro.nic.nic import ETHERNET_OVERHEAD_BYTES
from repro.programs import make_program


@pytest.mark.benchmark(group="fig10a")
def test_fig10a_64B_packets_nic_bottleneck(benchmark, executor):
    series = benchmark.pedantic(
        run_preset, args=(FIGURE_PRESETS["10a"], executor),
        kwargs=BENCH_WORKLOAD, rounds=1, iterations=1,
    )
    emit(render_scaling_series(
        series,
        title="Figure 10a — token bucket, 64 B packets, SCR-only metadata (Mpps)",
    ))

    scr = dict(series["scr"])
    costs = TABLE4_PARAMS["token_bucket"]
    meta = make_program("token_bucket").metadata_size

    # Compute where CPU capacity crosses the 100G wire ceiling for SCR's
    # inflated frames — the saturation point the figure shows (~11 cores).
    def cpu_mpps(k):
        return k / (costs.t + (k - 1) * costs.c2) * 1e3

    def wire_mpps(k):
        overhead = ScrPacketCodec(meta, k, dummy_eth=True).overhead_bytes
        frame = 64 + overhead + ETHERNET_OVERHEAD_BYTES
        return 100e9 / (frame * 8) / 1e6

    crossover = next(k for k in range(2, 32) if cpu_mpps(k) > wire_mpps(k))
    emit(f"CPU/wire crossover at {crossover} cores "
         f"(cpu {cpu_mpps(crossover):.1f} vs wire {wire_mpps(crossover):.1f} Mpps)")

    # The wire binds somewhere around the paper's ~11 cores (ours: ~15, the
    # header-size difference shifts the corner, not the mechanism).
    assert 8 <= crossover <= 17
    # Beyond the crossover, adding cores buys ~nothing: the NIC is the
    # bottleneck.  CPU-only scaling 14 → 18 cores would be ~1.2x.
    assert scr[18] < scr[14] * 1.08
    # At 18 cores the measured rate sits at the wire ceiling (±MLFFR's 4 %
    # loss allowance), well below what the CPUs could do.
    assert scr[18] < cpu_mpps(18) * 0.90
    assert scr[18] == pytest.approx(wire_mpps(18), rel=0.15)
    # SCR still saturates far above every other technique.
    for tech in ("shared", "rss", "rss++"):
        assert scr[14] > dict(series[tech])[14]

"""Ablation: sizing the history ring beyond the core count.

With round-robin spraying, N = k slots are necessary and sufficient in the
loss-free case (§3.1), and give recovery a window of exactly one
inter-visit gap.  A larger ring (like the NetFPGA's fixed 16/32/… rows,
§3.3.2) costs bytes on every packet but widens the recovery window: a
sequence is only *skipped* when it is absent from every core's log, which
requires all N of its carriers lost.  This bench measures both sides —
skip probability under bursty loss vs per-packet byte overhead — across
ring sizes.
"""

import pytest

from benchmarks.conftest import emit
from repro.bench import render_table
from repro.core import ScrFunctionalEngine, ScrPacketCodec
from repro.faults import FaultSpec
from repro.programs import make_program
from repro.traffic import synthesize_trace, univ_dc_flow_sizes

CORES = 4
RING_SIZES = [4, 8, 16, 32]
LOSS_RATES = [0.08, 0.30]


@pytest.mark.benchmark(group="ablation-window")
def test_ablation_ring_size_vs_recovery_robustness(benchmark):
    trace = synthesize_trace(
        univ_dc_flow_sizes(), 30, seed=15, max_packets=2500,
        mean_flow_interarrival_ns=500,
    )
    meta = make_program("ddos").metadata_size

    def run():
        rows = []
        for loss in LOSS_RATES:
            for slots in RING_SIZES:
                engine = ScrFunctionalEngine(
                    make_program("ddos"), CORES, num_slots=slots,
                    with_recovery=True,
                    faults=FaultSpec.create(seed=77, drop_rate=loss),
                )
                result = engine.run(trace)
                assert result.replicas_consistent
                overhead = ScrPacketCodec(meta, slots, dummy_eth=True).overhead_bytes
                rows.append({
                    "loss": loss,
                    "slots": slots,
                    "lost": len(result.lost_seqs),
                    "recovered": result.recovered,
                    "skipped": len(result.skipped_seqs),
                    "overhead": overhead,
                })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(render_table(
        ["loss", "ring slots", "injected losses", "peer-log recoveries",
         "skipped seqs", "bytes/packet overhead"],
        [
            [f"{r['loss']:.0%}", r["slots"], r["lost"], r["recovered"],
             r["skipped"], r["overhead"]]
            for r in rows
        ],
        title=f"Ablation — ring size vs recovery robustness ({CORES} cores)",
    ))

    def pick(loss, slots):
        return next(r for r in rows if r["loss"] == loss and r["slots"] == slots)

    for loss in LOSS_RATES:
        # Wider rings shift recovery from cross-core log reads to the
        # core's own in-window history: peer-log recoveries fall
        # monotonically with ring size.
        recs = [pick(loss, s)["recovered"] for s in RING_SIZES]
        assert all(b <= a for a, b in zip(recs, recs[1:]))
        assert recs[-1] < recs[0]
    # Skips (sequence lost at every core) need all N carriers lost: visible
    # at 30 % loss with the minimal ring, gone with a 16-slot ring.
    assert pick(0.30, 4)["skipped"] > 0
    assert pick(0.30, 16)["skipped"] == 0
    # The price is linear byte overhead.
    assert pick(0.08, 32)["overhead"] - pick(0.08, 4)["overhead"] == 28 * meta

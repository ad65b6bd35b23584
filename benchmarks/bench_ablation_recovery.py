"""Ablation: recover lost packets by syncing HISTORY vs syncing FULL STATE.

§3.4 chooses history synchronization: losses are rare but the flow-state
table is large, so copying the peer's whole state per loss would move far
more bytes than replaying a few metadata entries.  This bench quantifies
the trade on a realistic run: bytes moved and recovery work per loss event,
as the number of tracked flows grows.
"""

import pytest

from benchmarks.conftest import emit
from repro.bench import render_table
from repro.core import ScrFunctionalEngine
from repro.cpu import STATE_ENTRY_BYTES
from repro.faults import FaultSpec
from repro.programs import make_program
from repro.traffic import synthesize_trace, univ_dc_flow_sizes


@pytest.mark.benchmark(group="ablation-recovery")
def test_ablation_history_vs_state_sync(benchmark):
    def run():
        rows = []
        for flows in (20, 100, 400):
            prog = make_program("heavy_hitter")
            trace = synthesize_trace(
                univ_dc_flow_sizes(), flows, seed=9, max_packets=1500,
                mean_flow_interarrival_ns=500,
            )
            engine = ScrFunctionalEngine(
                make_program("heavy_hitter"), 4,
                with_recovery=True,
                faults=FaultSpec.create(seed=11, drop_rate=0.02),
            )
            result = engine.run(trace)
            assert result.replicas_consistent
            losses = max(1, len(result.lost_seqs))
            tracked = len(result.replica_snapshots[0])
            meta = prog.metadata_size
            # History sync: each recovered sequence replays one metadata
            # entry read from a peer log.
            history_bytes = result.recovered * meta / losses
            # Full-state sync: each loss event copies the peer's whole
            # table (entries × cache-line footprint).
            state_bytes = tracked * STATE_ENTRY_BYTES
            rows.append({
                "flows": tracked,
                "losses": len(result.lost_seqs),
                "recovered": result.recovered,
                "history_bytes_per_loss": history_bytes,
                "state_bytes_per_loss": state_bytes,
                "ratio": state_bytes / max(1.0, history_bytes),
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(render_table(
        ["tracked flows", "losses", "recovered seqs", "history sync (B/loss)",
         "full-state sync (B/loss)", "state/history ratio"],
        [
            [r["flows"], r["losses"], r["recovered"],
             f"{r['history_bytes_per_loss']:.0f}",
             f"{r['state_bytes_per_loss']:,.0f}", f"{r['ratio']:,.0f}x"]
            for r in rows
        ],
        title="Ablation — recovery by history replay vs full-state copy",
    ))

    # History sync moves orders of magnitude fewer bytes, and the gap grows
    # with the flow count (the paper's rationale).
    assert all(r["ratio"] > 10 for r in rows)
    ratios = [r["ratio"] for r in rows]
    assert ratios[-1] > ratios[0]

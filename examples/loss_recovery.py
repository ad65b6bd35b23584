#!/usr/bin/env python3
"""Scenario: packet loss between the sequencer and the cores (§3.4, App. B).

If a ToR-switch sequencer feeds the server, a packet can occasionally be
lost after sequencing.  Without care, one core's replica would silently
diverge.  This example drops 2 % of packets with a seeded ``FaultSpec``,
lets Algorithm 1's per-core logs recover the gaps, and verifies that every
replica still converges to the reference state — then shows the throughput
price of recovery under the same kind of drop schedule.
"""

from repro.bench import find_mlffr, render_table
from repro.core import ScrFunctionalEngine, reference_run
from repro.cpu import PerfTrace
from repro.faults import FaultPlan, FaultSpec
from repro.parallel import ScrEngine
from repro.programs import make_program
from repro.traffic import caida_backbone_flow_sizes, synthesize_trace


def main() -> None:
    trace = synthesize_trace(
        caida_backbone_flow_sizes(), num_flows=40, seed=5, max_packets=2500
    )

    # --- functional: inject loss, recover, verify ------------------------------
    engine = ScrFunctionalEngine(
        make_program("heavy_hitter"), num_cores=4,
        with_recovery=True, faults=FaultSpec.create(seed=123, drop_rate=0.02),
    )
    result = engine.run(trace)
    print(f"offered {result.offered} packets; "
          f"{len(result.lost_seqs)} lost between sequencer and cores")
    print(f"recovered {result.recovered} sequence entries from peer logs; "
          f"{result.skipped} skipped (lost at every core)")
    assert result.replicas_consistent
    print("replicas consistent across all 4 cores ✓")

    _, ref_state = reference_run(make_program("heavy_hitter"), trace)
    if result.skipped == 0 and not result.blocked_cores:
        assert result.replica_snapshots[0] == ref_state
        print("final state identical to the loss-free reference ✓")

    # --- performance: what does recovery cost? ---------------------------------
    pt = PerfTrace.from_trace(trace.truncated(192), make_program("heavy_hitter"))
    rows = []
    configs = [
        ("no recovery", False, 0.0),
        ("recovery, 0% loss", True, 0.0),
        ("recovery, 0.1% loss", True, 0.001),
        ("recovery, 1% loss", True, 0.01),
    ]
    for label, with_recovery, loss in configs:
        engine = ScrEngine(make_program("heavy_hitter"), 7,
                           with_recovery=with_recovery)
        plan = FaultPlan(FaultSpec.create(seed=123, drop_rate=loss))
        mlffr = find_mlffr(pt, engine, faults=plan)
        rows.append([label, f"{mlffr.mlffr_mpps:.2f}"])
    print()
    print(render_table(
        ["configuration", "MLFFR (Mpps, 7 cores)"], rows,
        title="Throughput cost of loss recovery (heavy hitter, CAIDA-like)",
    ))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Scenario: TCP connection tracking for a single elephant connection (Fig. 1).

A connection tracker must see every packet of both directions in order —
the hardest case for parallelization, since one busy connection cannot be
sharded.  This example walks one TCP conversation through the SCR pipeline,
shows the tracked state evolving identically on every core, and reproduces
the Figure 1 throughput comparison.
"""

from repro.bench import render_scaling_series
from repro.bench.figures import FIGURE_PRESETS, run_preset
from repro.core import ScrFunctionalEngine
from repro.programs import TcpState, make_program
from repro.traffic import single_flow_trace


def main() -> None:
    # --- functional: one connection across 3 replicated cores -----------------
    trace = single_flow_trace(num_packets=50, bidirectional=True)
    print(f"one TCP conversation: {len(trace)} packets "
          "(SYN handshake, data+ACKs, FIN teardown)")

    engine = ScrFunctionalEngine(make_program("conntrack"), num_cores=3)
    result = engine.run(trace)
    assert result.replicas_consistent

    final_state = result.replica_snapshots[0]
    print(f"after teardown the tracker reaped the entry: "
          f"{len(final_state)} connections left (expected 0)")

    # Mid-connection snapshot: stop before the FIN exchange.
    partial = single_flow_trace(num_packets=50, bidirectional=True)
    partial.packets = partial.packets[:-3]
    engine = ScrFunctionalEngine(make_program("conntrack"), num_cores=3)
    result = engine.run(partial)
    entry = next(iter(result.replica_snapshots[0].values()))
    print(f"mid-connection state on every core: {TcpState(entry.state).name}")
    assert entry.state == TcpState.FIN_WAIT or entry.state == TcpState.ESTABLISHED

    # --- performance: the Figure 1 sweep ----------------------------------------
    print("\nreproducing Figure 1 (single TCP connection, conntrack MLFFR)...")
    series = run_preset(FIGURE_PRESETS["1"], max_packets=3000)
    print(render_scaling_series(series, title="Figure 1 (Mpps)"))

    scr, rss = dict(series["scr"]), dict(series["rss"])
    print(f"\nSCR scales the single connection {scr[7] / scr[1]:.1f}x with 7 cores; "
          f"sharding stays at {rss[7] / rss[1]:.1f}x (one core's rate).")


if __name__ == "__main__":
    main()

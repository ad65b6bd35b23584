"""Extension experiment: global state (NAT port pool) under each technique.

§2.2: "it is not always possible to avoid coordination through sharding.
There may be parts of the program state that are shared across all packets,
such as a list of free external ports in a NAT application."  This bench
makes that concrete:

* **correctness** — sharded per-core state hands the same external port to
  different flows (functional demonstration); SCR replicas stay identical
  to the single-threaded reference;
* **throughput** — SCR still scales the NAT while shared-lock collapses
  (every packet may touch the one pool entry, the worst contention case).
"""

import pytest

from benchmarks.conftest import emit
from repro.bench import find_mlffr, render_scaling_series, render_table
from repro.bench.figures import CORES_7
from repro.core import ScrFunctionalEngine, reference_run
from repro.cpu import PerfTrace
from repro.packet import TCP_ACK, TCP_FIN, TCP_SYN, make_tcp_packet
from repro.parallel import ScrEngine, ShardedFunctionalEngine, SharedLockEngine
from repro.programs import NatGateway
from repro.traffic import Trace


def nat_trace(flows=60, data_per_flow=3, rounds=10):
    """Churn-heavy NAT workload: short connections arriving in waves, so a
    large fraction of packets allocate/release from the global pool (real
    NAT boxes live on connection churn).  Only even-numbered sources close
    their connections, so bindings remain to inspect afterwards."""
    pkts = []
    for r in range(rounds):
        for src in range(1, flows + 1):
            sport = 100 + r
            pkts.append(make_tcp_packet(src, 9, sport, 80, TCP_SYN))
            for _ in range(data_per_flow):
                pkts.append(make_tcp_packet(src, 9, sport, 80, TCP_ACK))
            if src % 2 == 0:
                pkts.append(make_tcp_packet(src, 9, sport, 80, TCP_FIN | TCP_ACK))
    return Trace(pkts, name="nat-workload").truncated(192)


@pytest.mark.benchmark(group="ext-nat")
def test_ext_nat_correctness_and_throughput(benchmark):
    trace = nat_trace()

    def run():
        out = {}
        # -- correctness ----------------------------------------------------
        engine = ScrFunctionalEngine(NatGateway(port_count=2048), num_cores=4)
        result = engine.run(trace)
        ref_verdicts, ref_state = reference_run(NatGateway(port_count=2048), trace)
        out["scr_consistent"] = result.replicas_consistent
        out["scr_matches_ref"] = (
            result.replica_snapshots[0] == ref_state
            and result.verdicts == ref_verdicts
        )
        # Sharded execution with real RSS steering into per-core state.
        sharded = ShardedFunctionalEngine(NatGateway(port_count=2048), num_cores=4)
        sharded.run(trace)
        # Count duplicate allocations across the raw shards (merged_state()
        # would deduplicate colliding keys).
        ports = []
        for s in sharded.states:
            ports.extend(
                v for k, v in s.snapshot().items()
                if isinstance(k, tuple) and k[0] == "bind"
            )
        out["sharded_duplicate_ports"] = len(ports) - len(set(ports))

        # -- throughput -------------------------------------------------------
        pt = PerfTrace.from_trace(trace, NatGateway(port_count=2048))
        series = {"scr": [], "shared": []}
        for k in CORES_7:
            scr = ScrEngine(NatGateway(port_count=2048), k, count_wire_overhead=False)
            series["scr"].append((k, find_mlffr(pt, scr).mlffr_mpps))
            lock = SharedLockEngine(NatGateway(port_count=2048), k)
            series["shared"].append((k, find_mlffr(pt, lock).mlffr_mpps))
        out["series"] = series
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)

    emit(render_table(
        ["check", "result"],
        [
            ["SCR replicas consistent", out["scr_consistent"]],
            ["SCR equals single-threaded reference", out["scr_matches_ref"]],
            ["duplicate ports under sharding", out["sharded_duplicate_ports"]],
        ],
        title="Extension — NAT with a global free-port pool: correctness",
    ))
    emit(render_scaling_series(
        out["series"], title="Extension — NAT gateway MLFFR (Mpps)"
    ))

    assert out["scr_consistent"] and out["scr_matches_ref"]
    # Sharding misallocates: the global pool cannot be split.
    assert out["sharded_duplicate_ports"] > 0
    scr = dict(out["series"]["scr"])
    shared = dict(out["series"]["shared"])
    assert scr[7] > 2.5 * scr[1]
    assert scr[7] > 1.5 * shared[7]
    # the global pool caps shared-lock scaling well below linear
    assert shared[7] < 0.5 * 7 * shared[1]

"""Extension experiment: a software L4 load balancer under SCR (§1, [8,41]).

Software load balancers are the first application the paper's introduction
names.  This bench runs the Maglev-style balancer on a connection-churn
workload and reports (i) the Maglev table's two defining properties —
near-equal backend shares and minimal disruption on backend failure — and
(ii) the load balancer's MLFFR under every scaling technique, where one
hot VIP's connection table is exactly the single-flow-state problem SCR
solves.
"""

import pytest

from benchmarks.conftest import emit
from repro.bench import render_scaling_series, render_table
from repro.bench.figures import CORES_7
from repro.core import ScrFunctionalEngine, reference_run
from repro.packet import TCP_ACK, TCP_FIN, TCP_SYN, make_tcp_packet
from repro.programs.load_balancer import MaglevLoadBalancer, MaglevTable
from repro.traffic import Trace

TECHNIQUES = ["scr", "shared", "rss", "rss++"]


def churn_trace(clients=60, rounds=4, data_per_conn=2, elephant_packets=2400):
    """A realistic VIP mix: churny short connections plus two long-lived
    elephant streams (e.g. video) that carry most of the packets.  The
    elephants are single connections — exactly the state sharding cannot
    split (§1) — interleaved round-robin with the churn."""
    churn = []
    for r in range(rounds):
        for c in range(1, clients + 1):
            sport = 1000 + r
            churn.append(make_tcp_packet(c, 9, sport, 80, TCP_SYN))
            for _ in range(data_per_conn):
                churn.append(make_tcp_packet(c, 9, sport, 80, TCP_ACK))
            churn.append(make_tcp_packet(c, 9, sport, 80, TCP_FIN | TCP_ACK))
    elephants = [
        make_tcp_packet(200 + (i % 2), 9, 5000, 80, TCP_ACK)
        for i in range(elephant_packets)
    ]
    # interleave: ~2 elephant packets per churn packet
    pkts = []
    e = iter(elephants)
    for pkt in churn:
        pkts.append(pkt)
        for _ in range(2):
            nxt = next(e, None)
            if nxt is not None:
                pkts.append(nxt)
    pkts.extend(e)
    return Trace(pkts, name="lb-mixed").truncated(192)


@pytest.mark.benchmark(group="ext-lb")
def test_ext_load_balancer(benchmark):
    trace = churn_trace()

    def run():
        out = {}
        # -- Maglev table properties ---------------------------------------
        table = MaglevTable(list(range(10)), table_size=65537)
        shares = table.shares()
        out["share_spread"] = max(shares.values()) - min(shares.values())
        out["disruption"] = table.disruption(
            MaglevTable(list(range(9)), table_size=65537)
        )
        # -- correctness under SCR ------------------------------------------
        engine = ScrFunctionalEngine(MaglevLoadBalancer(), num_cores=4)
        result = engine.run(trace)
        _, ref_state = reference_run(MaglevLoadBalancer(), trace)
        out["consistent"] = (
            result.replicas_consistent
            and result.replica_snapshots[0] == ref_state
        )
        # -- throughput -------------------------------------------------------
        from repro.cpu import PerfTrace
        from repro.parallel import make_engine
        from repro.bench import find_mlffr

        pt = PerfTrace.from_trace(trace, MaglevLoadBalancer())
        series = {}
        for tech in TECHNIQUES:
            kwargs = {"count_wire_overhead": False} if tech == "scr" else {}
            series[tech] = [
                (
                    k,
                    find_mlffr(
                        pt, make_engine(tech, MaglevLoadBalancer(), k, **kwargs)
                    ).mlffr_mpps,
                )
                for k in CORES_7
            ]
        out["series"] = series
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)

    emit(render_table(
        ["Maglev property", "value", "expectation"],
        [
            ["backend share spread", f"{out['share_spread']:.4f}", "< 0.02"],
            ["disruption, 1 of 10 removed", f"{out['disruption']:.3f}", "≈ 0.1-0.3"],
            ["SCR replicas == reference", out["consistent"], "True"],
        ],
        title="Extension — Maglev load balancer",
    ))
    emit(render_scaling_series(
        out["series"], title="Extension — load balancer MLFFR (Mpps)"
    ))

    assert out["share_spread"] < 0.02
    assert 0.05 < out["disruption"] < 0.4
    assert out["consistent"]
    scr = dict(out["series"]["scr"])
    assert scr[7] > 2.5 * scr[1]
    for tech in ("shared", "rss", "rss++"):
        assert scr[7] > dict(out["series"][tech])[7], tech

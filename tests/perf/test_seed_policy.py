"""Seed policy: pinned seeds, deterministic synthesis, stable medians."""

from repro.perf.suite import BASE_SEED, SuiteParams
from repro.scenario import Scenario, StackBuilder, scenario_grid
from repro.traffic.distributions import TRACE_DISTRIBUTIONS
from repro.traffic.synthesis import synthesize_trace


def test_suite_seed_matches_benchmarks_pin():
    from benchmarks.conftest import BENCH_BASE_SEED

    assert BASE_SEED == BENCH_BASE_SEED == 7


def test_trace_synthesis_is_seed_deterministic():
    def synth(seed):
        trace = synthesize_trace(TRACE_DISTRIBUTIONS["caida"](), 20,
                                 seed=seed, max_packets=500)
        return [(p.wire_len, p.five_tuple()) for p in trace]

    assert synth(7) == synth(7)
    assert synth(7) != synth(8)


def test_with_seed_preserves_config_and_isolates_memos():
    base = Scenario.create("ddos", "caida", "scr", 2, num_flows=12,
                           max_packets=345, seed=BASE_SEED)
    rep = base.with_seed(BASE_SEED + 2)
    assert rep.trace.seed == BASE_SEED + 2
    assert (rep.trace.num_flows, rep.trace.max_packets) == (12, 345)
    assert rep.content_hash() != base.content_hash()
    # Memos are per-builder and keyed on the full spec (seed included), so
    # one repetition never reuses another seed's trace.
    a, b = StackBuilder(), StackBuilder()
    a.trace(base.trace)
    b.trace(rep.trace)
    assert list(a._traces) == [base.trace]
    assert list(b._traces) == [rep.trace]


def test_repeated_suite_medians_are_identical():
    # The acceptance loop: same code + same seeds -> identical medians.
    params = SuiteParams(reps=2, quick=True)
    grid = [
        sc
        for seed in params.rep_seeds
        for sc in scenario_grid("ddos", "caida", ["scr"], [2],
                                num_flows=params.num_flows,
                                max_packets=params.max_packets, seed=seed)
    ]
    runs = [[r.mlffr_mpps for r in params.executor().run(grid)]
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_artifact_records_seed_policy():
    params = SuiteParams(reps=3, base_seed=BASE_SEED)
    policy = params.seed_policy()
    assert policy["rep_seeds"] == [7, 8, 9]
    assert "base_seed + i" in policy["policy"]

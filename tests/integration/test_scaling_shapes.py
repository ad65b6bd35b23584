"""Integration: the paper's qualitative results as assertions.

These are the claims EXPERIMENTS.md records against — who wins, the shape of
each curve, where the crossovers fall.  Absolute Mpps differ from the paper's
testbed; orderings and monotonicity must not.
"""

import pytest

from repro.bench import predicted_scr_mpps
from repro.cpu import TABLE4_PARAMS
from repro.faults import FaultSpec
from repro.scenario import Scenario, ScenarioExecutor, scenario_grid

CORES = [1, 2, 4, 7]
_WORKLOAD = dict(num_flows=50, max_packets=3000)


@pytest.fixture(scope="module")
def executor():
    return ScenarioExecutor()


def sweep(executor, program, trace, technique, cores=CORES):
    grid = scenario_grid(program, trace, [technique], cores, **_WORKLOAD)
    return {r.scenario.cores: r.mlffr_mpps for r in executor.run(grid)}


@pytest.mark.parametrize(
    "program,trace",
    [
        ("ddos", "univ_dc"),
        ("token_bucket", "univ_dc"),
        ("port_knocking", "caida"),
        ("heavy_hitter", "caida"),
        ("conntrack", "hyperscalar_dc"),
    ],
)
def test_scr_scales_monotonically_everywhere(executor, program, trace):
    """Goal 3 (§2.3): performance never degrades with more cores."""
    caps = sweep(executor, program, trace, "scr")
    values = [caps[k] for k in CORES]
    assert all(b >= a * 0.98 for a, b in zip(values, values[1:]))
    assert caps[7] > 2.5 * caps[1]


@pytest.mark.parametrize("program,trace", [("ddos", "univ_dc"), ("conntrack", "hyperscalar_dc")])
def test_scr_beats_all_baselines_at_seven_cores(executor, program, trace):
    scr = sweep(executor, program, trace, "scr", cores=[7])[7]
    for technique in ("shared", "rss", "rss++"):
        other = sweep(executor, program, trace, technique, cores=[7])[7]
        assert scr > other, technique


@pytest.mark.parametrize("program", ["token_bucket", "port_knocking"])
def test_shared_lock_collapses_beyond_two_cores(executor, program):
    """'The performance of lock-based sharing falls off catastrophically
    with 3 or more cores' (§4.2)."""
    caps = sweep(executor, program, "univ_dc", "shared", cores=[2, 7])
    assert caps[7] < caps[2]


def test_sharding_flat_under_skew(executor):
    """RSS cannot split an elephant: throughput stays near one core's."""
    caps = sweep(executor, "ddos", "univ_dc", "rss")
    assert caps[7] < 2.0 * caps[1]


def test_scr_single_connection_scales_where_sharding_cannot(executor):
    """Figure 1: a single TCP connection."""
    scr = sweep(executor, "conntrack", "single-flow", "scr")
    rss = sweep(executor, "conntrack", "single-flow", "rss")
    assert scr[7] > 2.5 * scr[1]
    assert rss[7] < 1.3 * rss[1]


def test_scr_measurements_match_appendix_a_model(executor):
    """Figure 11: predicted vs measured within ~15 %."""
    for program, trace in (("ddos", "univ_dc"), ("token_bucket", "univ_dc")):
        caps = sweep(executor, program, trace, "scr")
        for k in CORES:
            predicted = predicted_scr_mpps(TABLE4_PARAMS[program], k)
            assert caps[k] == pytest.approx(predicted, rel=0.17), (program, k)


def test_loss_recovery_costs_but_still_wins(executor):
    """Figure 10b ordering: SCR with recovery at 1% loss still beats RSS."""
    plain = sweep(executor, "port_knocking", "univ_dc", "scr", cores=[7])[7]
    recovered = executor.run_one(Scenario.create(
        "port_knocking", "univ_dc", "scr", 7,
        engine_kwargs={"with_recovery": True},
        faults=FaultSpec.create(seed=7, drop_rate=0.01),
        **_WORKLOAD,
    )).mlffr_mpps
    rss = sweep(executor, "port_knocking", "univ_dc", "rss", cores=[7])[7]
    assert recovered < plain
    assert recovered > rss

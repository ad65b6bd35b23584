"""Self-test of the benchmark on a tiny grid.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every metric of BENCHMARK.json prints with its unit, that a
wrong expectation counts as a failed search, and that the traced run's
layer self-times cover its grid wall.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402
import ledger  # noqa: E402
from repro.faults.spec import FaultSpec  # noqa: E402
from repro.scenario import Scenario  # noqa: E402

TINY_PACKETS = 1000


def _tiny(observe_all: bool) -> harness.Workload:
    grid = [
        harness._caida("ddos", "scr", 2, 7, TINY_PACKETS),
        harness._caida("ddos", "rss", 2, 7, TINY_PACKETS),
    ]
    if not observe_all:
        grid += [
            harness._caida("ddos", "scr", 4, 7, TINY_PACKETS,
                           faults=FaultSpec(seed=7, drop_rate=0.01)),
            Scenario.create("ddos", "zipf", "hybrid", 4, num_flows=2000,
                            max_packets=TINY_PACKETS, seed=7,
                            placement=harness._PLACEMENT),
        ]
    twin = None if observe_all else "ddos/caida/rss/2"
    return harness._workload("tiny", grid, observe_all=observe_all, twin=twin)


@pytest.fixture(scope="module")
def plain() -> harness.Workload:
    return _tiny(observe_all=False)


@pytest.fixture(scope="module")
def expected(plain: harness.Workload) -> dict:
    return harness.oracle(plain)


def _units(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _run(workload, expected, tmp_path, traced=False):
    return harness.measure(workload, expected, seconds=0, order_seed=3,
                           traced=traced, scratch=tmp_path / "scratch")


def test_every_end_to_end_metric_prints_with_its_unit(plain, expected, tmp_path):
    result, samples, _ = _run(plain, expected, tmp_path)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    # warm-up (scr, rss, hybrid) + one grid + the twin pair
    assert result["attempted"] == 3 + samples["plain_searches"] + 2
    assert not any((tmp_path / "scratch").iterdir())


def test_observed_workload_pairs_every_search(tmp_path):
    workload = _tiny(observe_all=True)
    result, samples, _ = _run(workload, harness.oracle(workload), tmp_path)
    assert result["correct"]
    assert samples["observed_searches"] == samples["plain_searches"] == 2
    assert result["metrics"]["observe_ratio"]["value"] > 1.0


def test_wrong_expectation_counts_as_failed(plain, expected, tmp_path):
    wrong = copy.deepcopy(expected)
    wrong["ddos/caida/scr/2"]["mlffr_mpps"] += 0.4
    result, _, _ = _run(plain, wrong, tmp_path)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_traced_run_ledger_covers_grid_wall(plain, expected, tmp_path):
    from repro.bench import mlffr
    from repro.cpu import columnar

    before = (mlffr.simulate, columnar.simulate_columnar)
    result, samples, log = _run(plain, expected, tmp_path, traced=True)
    assert (mlffr.simulate, columnar.simulate_columnar) == before
    assert {n: m["unit"] for n, m in result["metrics"].items()} == _units("per_layer")
    assert samples["traced_rounds"] == 1 and result["correct"]
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["bench.ledger_coverage"] > 0.9
    layers = (m["mlffr.search_self_s"] + m["scalar.s"] + m["columnar.commit_s"]
              + m["columnar.abort_s"] + m["faults.plan_s"] + m["parallel.engine_s"])
    assert layers == pytest.approx(m["bench.grid_s"], rel=1e-6)
    # faults force the scalar path; the hybrid never runs columnar
    assert m["columnar.ineligible"] > 0 and m["faults.injected"] > 0
    assert m["columnar.commits"] > 0 and m["placement.promotions"] > 0
    assert m["telemetry.events"] > 0 and m["obs.spans"] > 0
    spans = tmp_path / "spans.jsonl"
    log.write(spans)
    assert len(spans.read_text().splitlines()) == len(log.spans)
    assert all(sp.self_ns >= 0 for sp in log.spans)


def test_installed_restores_every_original():
    from repro.cpu.simulator import PerfTrace
    from repro.scenario import build

    def current():
        return (build.make_engine, build.StackBuilder.__dict__["trace"],
                PerfTrace.__dict__["from_trace"])

    before = current()
    with ledger.installed(ledger.SpanLog()):
        assert all(a is not b for a, b in zip(current(), before))
    assert current() == before

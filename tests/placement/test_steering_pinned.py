"""The hybrid's steering walk pinned byte for byte.

Each digest is a sha256 over the columns of one exact steering walk
(``HybridEngine.steer_batch``: cores, elephant sequence numbers,
stateless flags, migration ns) plus its placement counters, and over the
``placement_stats`` of full simulations at an underloaded and an
overloaded rate (the overloaded one steers only the admitted rows).  The
trace is the one perfbench's ``sweep_scalar`` searches for the hybrid:
ddos @ zipf, 10^4 flows, 2000 packets, seed 7, under the multitenant
suite's :class:`PlacementSpec`, at 4 and 8 cores.

Steering may get cheaper, never different.  Re-record the digests
(``PYTHONPATH=src python -m tests.placement.test_steering_pinned``) only
for a deliberate change to placement.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict

import numpy as np
import pytest

from repro.cpu.simulator import simulate
from repro.placement import PlacementSpec
from repro.scenario import Scenario
from repro.scenario.build import StackBuilder

#: perfbench's hybrid scenarios (``perfbench/harness.py:sweep_scalar``).
PLACEMENT = PlacementSpec(max_elephants=12, promote_threshold=24,
                          demote_threshold=8)
CORES = (4, 8)
#: one rate every packet is admitted at, one that overruns the wire.
RATES = (2e6, 60e6)

PINNED = {
    "4/2e+06": "95ebcb7cdb606e2811cb16a4491bce3f8690d8bc0534542e52f9a03f98ee739a",
    "4/6e+07": "18a89f7f1d994199e792092a771f805ca1ef6ee2968825f6a72f7109e423456b",
    "4/walk": "8ba3e8ef43c5a920ba2f57936431ccd7c16f4da577ad5fcd3ec723445145d872",
    "8/2e+06": "5344e46afef0909106e3f6ffcfeccb34cb925344ccafeaf7e837d8de4d81b907",
    "8/6e+07": "b221da615baec16b81adc58eb3d086a37d60a87b15a4c9f034efe035a8a7ff2b",
    "8/walk": "011b7fd0b1b2e351ca0e0e40958c7e8a239494900b246d43a20a07d86b39800c",
}


def _scenario(cores: int) -> Scenario:
    return Scenario.create("ddos", "zipf", "hybrid", cores, num_flows=10_000,
                           max_packets=2000, seed=7, placement=PLACEMENT)


def _update(h, name: str, value) -> None:
    h.update(name.encode() + b"\0")
    if isinstance(value, np.ndarray):
        h.update(str(value.dtype).encode() + b"\0")
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(json.dumps(value, sort_keys=True).encode())


def current_digests() -> Dict[str, str]:
    """Every pinned case's digest under the code as it stands."""
    builder = StackBuilder()
    digests = {}
    for cores in CORES:
        scenario = _scenario(cores)
        trace = builder.perf_trace(scenario.program, scenario.trace)
        engine = builder.engine(scenario)
        engine.steer_batch(trace, np.arange(len(trace)))
        walk = engine._walk
        h = hashlib.sha256()
        for name in ("cores", "seq", "stateless", "migration"):
            _update(h, name, getattr(walk, name))
        _update(h, "counters", walk.counters)
        digests[f"{cores}/walk"] = h.hexdigest()
        for rate in RATES:
            res = simulate(trace, rate, builder.engine(scenario))
            h = hashlib.sha256()
            _update(h, "processed", res.processed)
            _update(h, "placement_stats", res.placement_stats)
            digests[f"{cores}/{rate:g}"] = h.hexdigest()
    return digests


@pytest.fixture(scope="module")
def digests() -> Dict[str, str]:
    return current_digests()


@pytest.mark.parametrize("case", sorted(PINNED))
def test_steering_matches_pinned_digest(digests, case):
    assert digests[case] == PINNED[case]


def test_every_case_is_pinned(digests):
    assert sorted(digests) == sorted(PINNED)


if __name__ == "__main__":  # pragma: no cover - re-recording helper
    for case, digest in sorted(current_digests().items()):
        print(f'    "{case}": "{digest}",')

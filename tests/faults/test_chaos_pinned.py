"""The curated chaos matrix, pinned row by row at quick size.

``chaos_pinned.json`` holds, for every ``fault_classes(7)`` row, the
outcome dict, the golden and per-replica final digests, and the SLO gap
counts a traced run reduces to.  Any change to how replicas detect,
cover, quarantine, resync or fork shows up here as a named row and field
rather than as an opaque artifact diff.

Regenerate (only for a deliberate behavior change) with::

    PYTHONPATH=src python -m tests.faults.test_chaos_pinned
"""

import json
from pathlib import Path

import pytest

from repro.faults.harness import run_chaos
from repro.faults.matrix import ChaosMatrixParams, fault_classes
from repro.obs.slo import compute_slo
from repro.telemetry.events import EventTracer

FIXTURE = Path(__file__).with_name("chaos_pinned.json")
PARAMS = ChaosMatrixParams(seed=7, quick=True)
ROWS = {row.name: row for row in fault_classes(PARAMS.seed)}


def record(name):
    """One matrix row's pinned fields, from a traced quick-size run."""
    row = ROWS[name]
    tracer = EventTracer(capacity=1_000_000)
    outcome = run_chaos(row.program, row.spec, num_cores=4,
                        max_packets=PARAMS.max_packets,
                        trace_seed=PARAMS.seed, tracer=tracer,
                        **dict(row.run_kwargs))
    slo = compute_slo(e.to_dict() for e in tracer.events())
    return {
        "outcome": outcome.to_dict(),
        "golden_digest": outcome.golden_digest,
        "final_digests": outcome.final_digests,
        "slo_gaps": slo["gaps"] if slo else None,
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_row(pinned):
    assert sorted(pinned) == sorted(ROWS)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_row_matches_pinned(pinned, name):
    assert record(name) == pinned[name]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {name: record(name) for name in sorted(ROWS)}, indent=1,
        sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")

"""The pure technique advisor (repro.analysis.advisor)."""

import json
from pathlib import Path

import pytest

from repro.analysis.advisor import (
    ADVICE_SCHEMA,
    ADVISOR_TECHNIQUES,
    WorkloadProfile,
    advise_program,
    eligible_techniques,
)
from repro.analysis.dataflow import FieldFacts, ProgramFacts
from repro.cpu import TABLE4_PARAMS
from repro.perf.advise import program_facts
from repro.programs.registry import program_names

PINNED = Path(__file__).with_name("advice_pinned.json")

#: The two workload profiles the pinned advice covers: the single-elephant
#: default (hybrid ineligible) and a mice-heavy many-flow profile that
#: makes hybrid eligible and gives the global-fraction bound some bite.
PINNED_PROFILES = {
    "default": WorkloadProfile(),
    "hybrid_eligible": WorkloadProfile(
        hot_key_share=0.2,
        global_fraction=0.05,
        flow_count=100_000,
        rss_core_shares={2: 0.6, 4: 0.35, 8: 0.2},
    ),
}


def make_facts(**overrides):
    base = dict(
        class_name="X", program_name="x", path="x.py", line=1,
        key_locality="flow_local",
        key_fields=("src_ip", "dst_ip", "src_port", "dst_port", "proto"),
        metadata_bytes=8, bidirectional=False, has_global_state=False,
        needs_locks=False, multi_key=False,
        fields=(FieldFacts(field="value", kinds=("add",), reads_old=True),),
        declared_commutative=("value",),
    )
    base.update(overrides)
    return ProgramFacts(**base)


COSTS = TABLE4_PARAMS["ddos"]


def test_eligibility_drops_rss_for_global_and_multikey_state():
    # eligible_techniques covers the *measurable* purebreds; hybrid's
    # workload-dependent eligibility is decided inside advise_program.
    assert eligible_techniques(make_facts()) == \
        tuple(t for t in ADVISOR_TECHNIQUES if t != "hybrid")
    for kwargs in ({"has_global_state": True}, {"multi_key": True}):
        eligible = eligible_techniques(make_facts(**kwargs))
        assert "rss" not in eligible
        assert set(eligible) == {"scr", "relaxed_scr", "shared"}


def test_hybrid_needs_flow_placeable_state():
    # Global/multi-entry state rules out the RSS half of the hybrid.
    advice = advise_program(make_facts(has_global_state=True), COSTS,
                            workload=WorkloadProfile(flow_count=10_000))
    hybrid = advice.score("hybrid")
    assert not hybrid.eligible
    assert "rss" in hybrid.reason.lower() or "state" in hybrid.reason.lower()


def test_hybrid_needs_enough_concurrent_flows():
    advice = advise_program(make_facts(), COSTS,
                            workload=WorkloadProfile(flow_count=46))
    hybrid = advice.score("hybrid")
    assert not hybrid.eligible
    assert "46" in hybrid.reason


def test_hybrid_wins_zipf_many_flow_workloads():
    """Mice-heavy traffic at high core counts: the hybrid's predicted
    curve must beat pure SCR (it skips the mice's history replay)."""
    workload = WorkloadProfile(hot_key_share=0.2, flow_count=100_000)
    advice = advise_program(make_facts(), COSTS, workload=workload,
                            cores=(1, 2, 4, 8))
    hybrid, scr = advice.score("hybrid"), advice.score("scr")
    assert hybrid.eligible
    assert hybrid.mlffr_mpps[-1] > scr.mlffr_mpps[-1]


def test_scr_curve_matches_appendix_a():
    advice = advise_program(make_facts(), COSTS, cores=(1, 2, 4, 8))
    scr = advice.score("scr")
    for k, mpps in zip(scr.cores, scr.mlffr_mpps):
        assert mpps == pytest.approx(k * 1e3 / (COSTS.t + (k - 1) * COSTS.c2))


def test_relaxed_curve_prunes_history_when_commutative():
    advice = advise_program(make_facts(), COSTS, cores=(1, 2, 8))
    relaxed = advice.score("relaxed_scr")
    for k, mpps in zip(relaxed.cores, relaxed.mlffr_mpps):
        expected = k * 1e3 / (COSTS.t + min(k - 1, 1) * COSTS.c2)
        assert mpps == pytest.approx(expected)
    assert relaxed.at(8) > advice.score("scr").at(8)


def test_relaxed_degenerates_for_non_commutative_state():
    facts = make_facts(
        fields=(FieldFacts(field="value", kinds=("rmw",), reads_old=True),),
        declared_commutative=None,
    )
    advice = advise_program(facts, COSTS, cores=(1, 4, 8))
    assert advice.score("relaxed_scr").mlffr_mpps == \
        advice.score("scr").mlffr_mpps
    assert "degenerates" in advice.score("relaxed_scr").reason


def test_rss_gated_by_busiest_core_share():
    balanced = WorkloadProfile(rss_core_shares={4: 0.25})
    elephant = WorkloadProfile(rss_core_shares={4: 1.0})
    a_bal = advise_program(make_facts(), COSTS, balanced, cores=(1, 4))
    a_ele = advise_program(make_facts(), COSTS, elephant, cores=(1, 4))
    per_pkt = COSTS.d + COSTS.c1
    assert a_bal.score("rss").at(4) == pytest.approx(1e3 / (0.25 * per_pkt))
    assert a_ele.score("rss").at(4) == pytest.approx(1e3 / per_pkt)


def test_rss_share_floors_at_perfect_balance():
    w = WorkloadProfile(rss_core_shares={8: 0.01})
    assert w.rss_share(8) == pytest.approx(1.0 / 8)
    assert w.rss_share(1) == 1.0
    # Missing entries fall back to the elephant worst case.
    assert WorkloadProfile(hot_key_share=0.9).rss_share(4) == 0.9


def test_winner_decided_at_largest_core_count():
    advice = advise_program(make_facts(), COSTS, cores=(4, 1, 2))
    assert advice.decision_cores == 4
    assert advice.recommended == max(
        (s for s in advice.scores if s.eligible), key=lambda s: s.at(4)
    ).technique


def test_shared_curve_zero_hot_share_has_no_serialization_bound():
    # A stateless-ish profile must not divide by zero.
    facts = make_facts(needs_locks=False)
    advice = advise_program(
        facts, COSTS, WorkloadProfile(hot_key_share=0.0), cores=(1, 4)
    )
    assert advice.score("shared").at(4) > 0


def test_invalid_cores_rejected():
    with pytest.raises(ValueError):
        advise_program(make_facts(), COSTS, cores=())
    with pytest.raises(ValueError):
        advise_program(make_facts(), COSTS, cores=(0, 2))


def test_to_dict_shape():
    advice = advise_program(make_facts(), COSTS, cores=(1, 2))
    payload = advice.to_dict()
    assert payload["schema"] == ADVICE_SCHEMA
    assert payload["recommended"] == advice.recommended
    assert {s["technique"] for s in payload["scores"]} == set(ADVISOR_TECHNIQUES)
    assert payload["facts"]["program"] == "x"


def pinned_advice():
    """Every registered program's advice under each pinned profile, as
    ``to_dict()`` minus the facts (whose source lines are not the point)."""
    out = {}
    for profile_name, profile in PINNED_PROFILES.items():
        for name in program_names():
            payload = advise_program(
                program_facts(name), TABLE4_PARAMS[name], profile
            ).to_dict()
            del payload["facts"]
            out[f"{profile_name}/{name}"] = payload
    return out


def test_advice_matches_pinned():
    """Curves (rounded), reasons, winner and decision k for all programs
    under both profiles equal the recorded fixture."""
    pinned = json.loads(PINNED.read_text())
    assert json.loads(json.dumps(pinned_advice())) == pinned


if __name__ == "__main__":  # re-record: python -m tests.analysis.test_advisor
    PINNED.write_text(json.dumps(pinned_advice(), indent=1, sort_keys=True)
                      + "\n")

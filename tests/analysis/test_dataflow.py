"""The state-access dataflow classifier (repro.analysis.dataflow)."""

import json
from pathlib import Path

import pytest

from repro.analysis import analyze_path
from repro.analysis.dataflow import FACTS_SCHEMA, FieldFacts, facts_report
from repro.perf.advise import all_program_facts, program_facts

from .conftest import fixture_path

GOLDEN = Path(__file__).parent / "golden_state_facts.json"


@pytest.fixture(scope="module")
def fixture_facts():
    facts = analyze_path(fixture_path("fixture_dataflow.py"))
    return {f.program_name: f for f in facts}


# -- fixture pairs: one per access category ----------------------------------


def test_commutative_counter(fixture_facts):
    f = fixture_facts["fx_counter"]
    assert f.key_locality == "flow_local"
    assert f.field("value").kinds == ("add",)
    assert f.all_commutative
    assert f.declared_commutative == ("value",)


def test_non_commutative_rmw(fixture_facts):
    f = fixture_facts["fx_rmw"]
    assert f.field("value").kinds == ("rmw",)
    assert not f.all_commutative


def test_cross_flow_key(fixture_facts):
    f = fixture_facts["fx_cross_flow"]
    assert f.key_locality == "cross_flow"
    assert f.key_fields == ("src_ip",)
    assert f.all_commutative


def test_monotonic_max(fixture_facts):
    f = fixture_facts["fx_max"]
    assert f.field("value").kinds == ("max",)
    assert f.field("value").monotonic
    assert f.all_commutative
    assert f.key_locality == "flow_local"


# -- field-level properties ---------------------------------------------------


def test_identity_only_field_not_commutative():
    # A field that is only ever carried over unchanged was never *written*
    # commutatively; declaring it commutative would be vacuous.
    f = FieldFacts(field="x", kinds=("identity",), reads_old=True)
    assert not f.commutative and not f.monotonic


def test_mixed_kinds_join_to_non_commutative():
    f = FieldFacts(field="x", kinds=("add", "overwrite"), reads_old=True)
    assert not f.commutative


def test_facts_report_schema():
    report = facts_report([fixture_path("fixture_dataflow.py")])
    assert report["schema"] == FACTS_SCHEMA
    assert {p["program"] for p in report["programs"]} == {
        "fx_counter", "fx_rmw", "fx_cross_flow", "fx_max",
    }


# -- the real zoo against the committed golden facts --------------------------


def _normalized(facts):
    d = facts.to_dict()
    d.pop("path")
    d.pop("line")
    return d


def test_zoo_matches_golden_state_facts():
    """Any change to a program's derived facts must be a conscious one:
    regenerate the golden file when the classification legitimately moves."""
    golden = json.loads(GOLDEN.read_text())
    assert golden["schema"] == FACTS_SCHEMA
    derived = {
        name: _normalized(f) for name, f in all_program_facts().items()
    }
    golden_rows = {row["program"]: row for row in golden["programs"]}
    assert set(derived) == set(golden_rows)
    for name in sorted(derived):
        assert derived[name] == golden_rows[name], name


def test_declared_commutative_matches_derived_for_zoo():
    """Every shipped declaration is provable (SCR007's clean-state case)."""
    for name, facts in all_program_facts().items():
        if facts.declared_commutative is None:
            continue
        assert set(facts.declared_commutative) == {
            f.field for f in facts.fields if f.commutative
        }, name


def test_program_facts_unknown_name():
    with pytest.raises(Exception):
        program_facts("no_such_program")

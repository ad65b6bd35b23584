"""HostProfile: schema versioning, save/load round-trip, Pareto views."""

import json
import re

import pytest

from repro.hostprof.artifact import (
    FOLDED_NAME,
    HOSTPROF_JSON,
    HOSTPROF_SCHEMA,
    SPEEDSCOPE_NAME,
    HostProfile,
)
from repro.hostprof.clock import PhaseClock
from repro.hostprof.export import parse_folded


_ROW = {"function": "f.py:1:f", "ncalls": 3, "tottime_ns": 5, "cumtime_ns": 7.5}

#: A ``deep`` section of the wrong shape, and the field the error names.
MALFORMED_DEEP = [
    ({"functions": [1, 2]}, "deep.functions[0]"),
    ({"functions": {"f": _ROW}}, "deep.functions"),
    ({"functions": [_ROW, {**_ROW, "function": 4}]}, "deep.functions[1].function"),
    ({"functions": [{**_ROW, "ncalls": 1.5}]}, "deep.functions[0].ncalls"),
    ({"functions": [{**_ROW, "ncalls": True}]}, "deep.functions[0].ncalls"),
    ({"functions": [{**_ROW, "tottime_ns": "5"}]}, "deep.functions[0].tottime_ns"),
    ({"functions": [{k: v for k, v in _ROW.items() if k != "cumtime_ns"}]},
     "deep.functions[0].cumtime_ns"),
    ({"memory_peak_bytes": [10]}, "deep.memory_peak_bytes"),
    ({"memory_peak_bytes": {"a": 10, "b": 2.5}}, "deep.memory_peak_bytes.b"),
    ({"memory_peak_bytes": {"a": "10"}}, "deep.memory_peak_bytes.a"),
]


def _clock():
    clock = PhaseClock(enabled=True)
    with clock.phase("scenario.run"):
        with clock.phase("trace.synthesize"):
            pass
        with clock.phase("mlffr.search"):
            with clock.phase("sim.run"):
                pass
    return clock


class TestCreate:
    def test_provenance_stamped(self):
        profile = HostProfile.create("profile", {"cores": 4}, _clock())
        assert profile.schema == HOSTPROF_SCHEMA
        assert profile.command == "profile"
        assert profile.config == {"cores": 4}
        assert profile.python and profile.platform and profile.created_utc
        assert len(profile.phases) == 4

    def test_total_wall_is_self_sum(self):
        profile = HostProfile.create("profile", {}, _clock())
        assert profile.total_wall_ns() == \
            sum(e["self_ns"] for e in profile.phases.values())

    def test_pareto_sorted_by_self_desc(self):
        profile = HostProfile.create("profile", {}, _clock())
        rows = profile.pareto()
        selfs = [r["self_ns"] for r in rows]
        assert selfs == sorted(selfs, reverse=True)
        assert abs(sum(r["self_share"] for r in rows) - 1.0) < 1e-9

    def test_pareto_lines_human_readable(self):
        lines = HostProfile.create("profile", {}, _clock()).pareto_lines(top=3)
        assert lines[0].startswith("phase")
        assert len(lines) == 4  # header + 3 rows


class TestSaveLoad:
    def test_writes_three_files(self, tmp_path):
        profile = HostProfile.create("profile", {"seed": 7}, _clock())
        path = profile.save(tmp_path / "hp")
        assert path.name == HOSTPROF_JSON
        for name in (HOSTPROF_JSON, FOLDED_NAME, SPEEDSCOPE_NAME):
            assert (tmp_path / "hp" / name).is_file()

    def test_round_trip(self, tmp_path):
        profile = HostProfile.create("profile", {"seed": 7}, _clock())
        profile.save(tmp_path / "hp")
        again = HostProfile.load(tmp_path / "hp")
        assert again.phases == profile.phases
        assert again.config == {"seed": 7}
        assert again.schema == HOSTPROF_SCHEMA
        # load also accepts the file path directly
        assert HostProfile.load(tmp_path / "hp" / HOSTPROF_JSON).phases == \
            profile.phases

    def test_folded_sidecar_matches_phases(self, tmp_path):
        profile = HostProfile.create("profile", {}, _clock())
        profile.save(tmp_path / "hp")
        folded = parse_folded((tmp_path / "hp" / FOLDED_NAME).read_text())
        expected = {p: e["self_ns"] for p, e in profile.phases.items()
                    if e["self_ns"] > 0}
        assert folded == expected

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="not a hostprof artifact"):
            HostProfile.from_dict({"schema": "scr-repro/bench-artifact/v1"})

    @pytest.mark.parametrize("phases, field", [
        ({"a": 5}, "phases.a"),
        ([], "phases"),
        ({"a": {"calls": 1, "total_ns": "9", "self_ns": 9}}, "phases.a.total_ns"),
    ])
    def test_malformed_phases_rejected(self, phases, field):
        with pytest.raises(ValueError, match=f"field '{field}' must be"):
            HostProfile.from_dict({"schema": HOSTPROF_SCHEMA, "phases": phases})

    @pytest.mark.parametrize("phases, field", [
        ({"a": 5}, "phases.a"),
        ([], "phases"),
    ])
    def test_report_on_malformed_phases_exits_2(self, tmp_path, phases,
                                                field):
        import io

        from repro.cli import main

        HostProfile.create("profile", {}, _clock()).save(tmp_path / "hp")
        path = tmp_path / "hp" / HOSTPROF_JSON
        data = json.loads(path.read_text())
        path.write_text(json.dumps({**data, "phases": phases}))
        out = io.StringIO()
        code = main(["report", str(tmp_path / "hp"),
                     "--out", str(tmp_path / "p.html")], out=out)
        text = out.getvalue()
        assert code == 2
        assert text.count("\n") == 1 and "Traceback" not in text
        assert str(path) in text and f"field '{field}'" in text
        assert not (tmp_path / "p.html").exists()

    def test_well_formed_deep_loads(self):
        deep = {"functions": [_ROW], "memory_peak_bytes": {"a": 10}}
        profile = HostProfile.from_dict({"schema": HOSTPROF_SCHEMA, "deep": deep})
        assert profile.deep == deep

    @pytest.mark.parametrize("deep, field", MALFORMED_DEEP)
    def test_malformed_deep_rejected(self, deep, field):
        with pytest.raises(ValueError, match=re.escape(f"field '{field}' must be")):
            HostProfile.from_dict({"schema": HOSTPROF_SCHEMA, "deep": deep})

    @pytest.mark.parametrize("deep, field", MALFORMED_DEEP)
    def test_report_on_malformed_deep_exits_2(self, tmp_path, deep, field):
        import io

        from repro.cli import main

        HostProfile.create("profile", {}, _clock()).save(tmp_path / "hp")
        path = tmp_path / "hp" / HOSTPROF_JSON
        data = json.loads(path.read_text())
        path.write_text(json.dumps({**data, "deep": deep}))
        out = io.StringIO()
        code = main(["report", str(tmp_path / "hp"),
                     "--out", str(tmp_path / "p.html")], out=out)
        text = out.getvalue()
        assert code == 2
        assert text.count("\n") == 1 and "Traceback" not in text
        assert str(path) in text and f"field '{field}'" in text
        assert not (tmp_path / "p.html").exists()

    def test_json_is_deterministic_given_same_dict(self, tmp_path):
        profile = HostProfile.create("profile", {}, _clock())
        profile.save(tmp_path / "a")
        profile.save(tmp_path / "b")
        assert (tmp_path / "a" / HOSTPROF_JSON).read_text() == \
            (tmp_path / "b" / HOSTPROF_JSON).read_text()

    def test_deep_section_survives_round_trip(self, tmp_path):
        profile = HostProfile.create(
            "profile", {}, _clock(),
            deep={"functions": [], "memory_peak_bytes": {"a": 10}},
        )
        profile.save(tmp_path / "hp")
        data = json.loads((tmp_path / "hp" / HOSTPROF_JSON).read_text())
        assert data["deep"]["memory_peak_bytes"] == {"a": 10}

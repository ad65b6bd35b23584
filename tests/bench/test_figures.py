"""Figure presets shared between benchmarks and the CLI."""

from repro.bench.figures import (
    FIGURE_PRESETS,
    SCR_IN_FRAME,
    preset_scenarios,
    run_preset,
)


def test_all_fig6_panels_defined():
    assert {f"6{c}" for c in "abcdefgh"} <= set(FIGURE_PRESETS)


def test_presets_reference_known_programs_and_traces():
    from repro.programs import program_names

    for preset in FIGURE_PRESETS.values():
        assert preset.program in program_names()
        assert preset.trace in ("univ_dc", "caida", "hyperscalar_dc", "single-flow")
        assert preset.cores == tuple(sorted(preset.cores))


def test_conntrack_panels_use_symmetric_capable_cores():
    # conntrack metadata (30 B) caps at 7 cores in a 256 B frame (§4.2)
    for name in ("1", "7"):
        assert max(FIGURE_PRESETS[name].cores) <= 7


def test_preset_scenarios_forward_workload_and_scr_kwargs():
    preset = FIGURE_PRESETS["6g"]
    grid = preset_scenarios(preset, num_flows=25, seed=9)
    # techniques outer, cores inner
    assert [(s.technique, s.cores) for s in grid] == [
        (t, k) for t in preset.techniques for k in preset.cores
    ]
    assert all(s.trace.num_flows == 25 and s.trace.seed == 9 for s in grid)
    for s in grid:
        expected = SCR_IN_FRAME if s.technique == "scr" else {}
        assert s.engine_kwargs_dict() == expected


def test_preset_packet_size_overrides_program_default():
    grid = preset_scenarios(FIGURE_PRESETS["10a"])
    assert {s.trace.packet_size for s in grid} == {64}


def test_run_preset_structure():
    series = run_preset(FIGURE_PRESETS["6g"], num_flows=25, max_packets=1200)
    assert set(series) == {"scr", "shared", "rss", "rss++"}
    for points in series.values():
        assert [k for k, _ in points] == list(FIGURE_PRESETS["6g"].cores)
        assert all(v > 0 for _, v in points)


def test_describe():
    assert FIGURE_PRESETS["7"].describe() == "Figure 7: conntrack on hyperscalar_dc"

"""Per-rule firing/non-firing tests against the deliberately-broken fixtures.

Every rule SCR001–SCR005 must (a) fire on its bad fixture classes and
(b) stay silent on the clean twin in the same file — the acceptance bar for
the analyzer being a usable admission gate rather than a noise source.
"""

from repro.analysis import lint_paths

from .conftest import fixture_path


def findings_for(name):
    report = lint_paths([fixture_path(name)])
    return report, report.findings


def rules_by_symbol(findings):
    out = {}
    for f in findings:
        out.setdefault(f.symbol, set()).add(f.rule)
    return out


# -- SCR001 nondeterminism ---------------------------------------------------

def test_scr001_fires_on_wall_clock_transition():
    _, findings = findings_for("fixture_scr001.py")
    sym = rules_by_symbol(findings)
    assert "SCR001" in sym.get("WallClockProgram.transition", set())


def test_scr001_follows_self_helper_closure():
    _, findings = findings_for("fixture_scr001.py")
    helper = [f for f in findings
              if f.symbol == "HiddenRngProgram._coin_flip" and f.rule == "SCR001"]
    # uuid4() and random.randrange() both live in the helper.
    assert len(helper) >= 2
    origins = {f.detail.get("origin") for f in helper}
    assert "uuid.uuid4" in origins
    assert "random.randrange" in origins


def test_scr001_flags_mutable_global_read():
    _, findings = findings_for("fixture_scr001.py")
    hits = [f for f in findings
            if f.rule == "SCR001" and f.detail.get("name") == "_FLOW_CACHE"]
    assert hits and hits[0].symbol == "GlobalReaderProgram.transition"


def test_scr001_silent_on_clean_twin():
    _, findings = findings_for("fixture_scr001.py")
    assert not [f for f in findings if f.symbol.startswith("CleanCounterProgram")]


# -- SCR002 purity -----------------------------------------------------------

def test_scr002_fires_on_self_mutation():
    _, findings = findings_for("fixture_scr002.py")
    hits = [f for f in findings
            if f.rule == "SCR002" and f.symbol == "SelfMutatingProgram.transition"]
    # one for the attribute assignment, one for the .add() mutator
    assert len(hits) >= 2


def test_scr002_fires_on_io():
    _, findings = findings_for("fixture_scr002.py")
    assert any(f.rule == "SCR002" and f.symbol == "IoProgram.transition"
               for f in findings)


def test_scr002_fires_on_statemap_reach():
    _, findings = findings_for("fixture_scr002.py")
    assert any(f.rule == "SCR002"
               and f.symbol == "StateReachingProgram.transition"
               for f in findings)


def test_scr002_silent_on_clean_twin():
    _, findings = findings_for("fixture_scr002.py")
    assert not [f for f in findings if f.symbol.startswith("CleanPureProgram")]


# -- SCR003 metadata ---------------------------------------------------------

def test_scr003_fires_on_format_fields_arity_mismatch():
    _, findings = findings_for("fixture_scr003.py")
    assert any(f.rule == "SCR003" and f.symbol == "ArityMismatchMetadata"
               for f in findings)


def test_scr003_fires_on_native_byte_order():
    _, findings = findings_for("fixture_scr003.py")
    assert any(f.rule == "SCR003" and f.symbol == "NativeOrderMetadata"
               for f in findings)


def test_scr003_fires_on_undeclared_meta_read():
    _, findings = findings_for("fixture_scr003.py")
    hits = [f for f in findings
            if f.rule == "SCR003" and f.detail.get("field") == "dst_port"]
    assert hits and hits[0].symbol == "UndeclaredReadProgram.transition"


def test_scr003_fires_on_typo_ctor_kwarg():
    _, findings = findings_for("fixture_scr003.py")
    assert any(f.rule == "SCR003" and f.detail.get("field") == "source_ip"
               for f in findings)


def test_scr003_silent_on_clean_twin():
    _, findings = findings_for("fixture_scr003.py")
    assert not [f for f in findings
                if f.symbol.startswith("CleanMetadataProgram")
                or f.symbol == "NarrowMetadata"]


# -- SCR004 engines ----------------------------------------------------------

def test_scr004_fires_on_wall_clock_and_rng():
    _, findings = findings_for("fixture_scr004.py")
    origins = {f.detail.get("origin") for f in findings if f.rule == "SCR004"}
    assert "time.perf_counter" in origins
    assert "random.randint" in origins
    assert "random.Random" in origins  # the unseeded construction


def test_scr004_fires_on_hidden_mutable_state():
    _, findings = findings_for("fixture_scr004.py")
    names = {f.detail.get("name") for f in findings if f.rule == "SCR004"}
    assert "_MIGRATION_LOG" in names  # module-level
    assert "scratch" in names  # class-body


def test_scr004_allows_seeded_instance_rng():
    _, findings = findings_for("fixture_scr004.py")
    clean_lines = [f for f in findings if "CleanSeededEngine" in f.symbol]
    assert not clean_lines
    # random.Random(seed) calls inside CleanSeededEngine must not fire:
    assert all(f.detail.get("origin") != "random.Random" or f.line < 30
               for f in findings)


def test_scr004_silent_on_shipped_engines():
    report = lint_paths(["src/repro/parallel"])
    assert report.ok, [str(f) for f in report.findings]


# -- SCR005 floats -----------------------------------------------------------

def test_scr005_fires_on_float_literals():
    _, findings = findings_for("fixture_scr005.py")
    hits = [f for f in findings
            if f.rule == "SCR005" and f.symbol == "FloatEwmaProgram.transition"]
    assert len(hits) >= 2  # 0.0 seed + the EWMA weights


def test_scr005_fires_on_division_and_math_in_helper():
    _, findings = findings_for("fixture_scr005.py")
    helper = [f for f in findings
              if f.rule == "SCR005" and f.symbol == "DivisionProgram._mean"]
    assert len(helper) >= 2  # the / and the math.sqrt


def test_scr005_silent_on_integer_twin():
    _, findings = findings_for("fixture_scr005.py")
    assert not [f for f in findings if f.symbol.startswith("CleanIntegerProgram")]


# -- SCR006 fault-handler hygiene --------------------------------------------

def test_scr006_fires_on_wall_clock_in_recovery_class():
    _, findings = findings_for("fixture_scr006.py")
    hits = [f for f in findings
            if f.rule == "SCR006" and f.symbol == "WallClockRecovery"]
    origins = {f.detail.get("origin") for f in hits}
    assert "time.monotonic" in origins
    assert "time.time_ns" in origins


def test_scr006_fires_on_rngs_even_seeded():
    _, findings = findings_for("fixture_scr006.py")
    hits = [f for f in findings
            if f.rule == "SCR006" and f.symbol == "ShuffledCheckpointer"]
    origins = {f.detail.get("origin") for f in hits}
    assert "random.Random" in origins  # seeded is still order-dependent
    assert "random.choice" in origins


def test_scr006_silent_on_pure_hash_twin():
    _, findings = findings_for("fixture_scr006.py")
    assert not [f for f in findings if f.symbol == "CleanPlanRecovery"]


def test_scr006_covers_faults_package_modules():
    # Path-scope: any module under a faults/ directory is in scope whole.
    from repro.analysis import lint_source

    report = lint_source(
        "import time\n\ndef when():\n    return time.time()\n",
        path="src/repro/faults/example.py",
    )
    assert any(f.rule == "SCR006" for f in report.findings)


def test_scr006_covers_the_scr_aware_runtime():
    # The window path's quarantine/resync lives in ScrCoreRuntime, whose
    # name the class-name scope would not match.
    from repro.analysis import lint_source

    report = lint_source(
        "import time\n\n"
        "class ScrCoreRuntime:\n"
        "    def _resync(self):\n"
        "        return time.perf_counter()\n",
        path="src/repro/core/scr_aware.py",
    )
    assert [f.detail.get("origin") for f in report.findings
            if f.rule == "SCR006"] == ["time.perf_counter"]


# -- the shipped tree is the ultimate non-firing fixture ---------------------

def test_default_paths_are_clean():
    report = lint_paths()
    assert report.ok, [str(f) for f in report.findings]
    assert report.files_checked >= 15

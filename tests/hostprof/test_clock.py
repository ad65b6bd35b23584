"""PhaseClock: nesting arithmetic, disabled no-ops, snapshot merging."""

from repro.hostprof.clock import NULL_HOSTPROF, PATH_SEP, PhaseClock


def busy(ns=50_000):
    """Spin for roughly ``ns`` host nanoseconds (keeps tests timer-visible)."""
    import time

    t0 = time.perf_counter_ns()
    while time.perf_counter_ns() - t0 < ns:
        pass


class TestNesting:
    def test_paths_are_semicolon_joined(self):
        clock = PhaseClock(enabled=True)
        clock.push("a")
        clock.push("b")
        clock.pop()
        clock.pop()
        snap = clock.snapshot()
        assert set(snap) == {"a", f"a{PATH_SEP}b"}

    def test_self_plus_children_equals_total(self):
        clock = PhaseClock(enabled=True)
        clock.push("outer")
        busy()
        clock.push("inner")
        busy()
        clock.pop()
        busy()
        clock.pop()
        snap = clock.snapshot()
        outer, inner = snap["outer"], snap["outer;inner"]
        assert outer["self_ns"] + inner["total_ns"] == outer["total_ns"]
        assert inner["self_ns"] == inner["total_ns"]
        assert outer["self_ns"] > 0 and inner["self_ns"] > 0

    def test_calls_accumulate(self):
        clock = PhaseClock(enabled=True)
        for _ in range(3):
            clock.push("p")
            clock.pop()
        assert clock.snapshot()["p"]["calls"] == 3

    def test_charge_records_leaf_under_current_path(self):
        clock = PhaseClock(enabled=True)
        clock.push("svc")
        t0 = clock.now()
        busy()
        clock.charge("ff", t0)
        clock.pop()
        snap = clock.snapshot()
        leaf = snap["svc;ff"]
        assert leaf["calls"] == 1
        assert leaf["self_ns"] == leaf["total_ns"] > 0
        # charged time counts as the parent's child time, not its self time
        assert snap["svc"]["self_ns"] + leaf["total_ns"] == \
            snap["svc"]["total_ns"]

    def test_charge_outside_any_phase_is_a_root(self):
        clock = PhaseClock(enabled=True)
        t0 = clock.now()
        clock.charge("solo", t0)
        assert "solo" in clock.snapshot()

    def test_depth_tracks_stack(self):
        clock = PhaseClock(enabled=True)
        assert clock.depth() == 0
        clock.push("a")
        assert clock.depth() == 1
        with clock.phase("b"):
            assert clock.depth() == 2
        assert clock.depth() == 1
        clock.pop()
        assert clock.depth() == 0


class TestDisabled:
    def test_null_singleton_is_disabled(self):
        assert NULL_HOSTPROF.enabled is False

    def test_disabled_ops_record_nothing(self):
        clock = PhaseClock(enabled=False)
        clock.push("a")
        with clock.phase("b"):
            pass
        clock.charge("c", clock.now())
        clock.pop()
        assert clock.snapshot() == {}
        assert clock.depth() == 0

    def test_disabled_now_is_zero(self):
        assert PhaseClock(enabled=False).now() == 0

    def test_disabled_merge_is_noop(self):
        clock = PhaseClock(enabled=False)
        clock.merge_snapshot({"a": {"calls": 1, "total_ns": 5, "self_ns": 5}})
        assert clock.snapshot() == {}


class TestMerge:
    SNAP = {
        "a": {"calls": 2, "total_ns": 100, "self_ns": 40},
        "a;b": {"calls": 2, "total_ns": 60, "self_ns": 60},
    }

    def test_merge_without_prefix_sums(self):
        clock = PhaseClock(enabled=True)
        clock.merge_snapshot(self.SNAP)
        clock.merge_snapshot(self.SNAP)
        snap = clock.snapshot()
        assert snap["a"] == {"calls": 4, "total_ns": 200, "self_ns": 80}
        assert snap["a;b"]["total_ns"] == 120

    def test_merge_with_prefix_reroots(self):
        clock = PhaseClock(enabled=True)
        clock.merge_snapshot(self.SNAP, prefix="worker")
        snap = clock.snapshot()
        assert set(snap) == {"worker;a", "worker;a;b"}
        assert snap["worker;a"]["calls"] == 2

    def test_merge_is_associative_with_live_phases(self):
        clock = PhaseClock(enabled=True)
        with clock.phase("a"):
            pass
        clock.merge_snapshot(self.SNAP)
        assert clock.snapshot()["a"]["calls"] == 3

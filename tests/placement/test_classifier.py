"""Elephant classifier: sketch guarantees, hysteresis, determinism."""

import pytest

from repro.placement import ElephantClassifier, PlacementSpec, tenant_of
from repro.placement.classifier import DEMOTE, PROMOTE, CountMinSketch


class TestCountMinSketch:
    def test_never_undercounts(self):
        sketch = CountMinSketch(width=64, depth=2, seed=3)
        exact = {}
        for i in range(500):
            key = str(i % 37).encode()
            sketch.add(key)
            exact[key] = exact.get(key, 0) + 1
        for key, count in exact.items():
            assert sketch.estimate(key) >= count

    def test_add_returns_running_estimate(self):
        sketch = CountMinSketch()
        assert sketch.add(b"k") == 1
        assert sketch.add(b"k", 4) == 5
        assert sketch.estimate(b"k") == 5

    def test_decay_halves(self):
        sketch = CountMinSketch()
        sketch.add(b"k", 8)
        sketch.decay()
        assert sketch.estimate(b"k") == 4
        sketch.reset()
        assert sketch.estimate(b"k") == 0

    def test_seed_changes_collisions(self):
        # Same keys, different seeds: row indexes must differ somewhere.
        a, b = CountMinSketch(seed=1), CountMinSketch(seed=2)
        assert any(
            a._indexes(str(i).encode()) != b._indexes(str(i).encode())
            for i in range(32)
        )

    def test_rejects_degenerate_geometry(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=0)


def spec(**kw) -> PlacementSpec:
    defaults = dict(promote_threshold=8, demote_threshold=2,
                    decay_interval=16, max_elephants=4)
    defaults.update(kw)
    return PlacementSpec(**defaults)


class TestElephantClassifier:
    def test_promotes_at_threshold_on_triggering_packet(self):
        clf = ElephantClassifier(spec())
        events = []
        for _ in range(8):
            promoted, evs = clf.observe("flow")
            events.extend(evs)
        assert promoted
        assert [e.kind for e in events] == [PROMOTE]
        assert clf.promotions == 1
        assert clf.is_promoted("flow")

    def test_mice_stay_unpromoted(self):
        clf = ElephantClassifier(spec())
        for i in range(200):
            promoted, _ = clf.observe(f"mouse-{i}")
            assert not promoted
        assert clf.promotions == 0

    def test_max_elephants_caps_promotions(self):
        clf = ElephantClassifier(spec(max_elephants=2, decay_interval=1000))
        for flow in ("a", "b", "c"):
            for _ in range(8):
                clf.observe(flow)
        assert [clf.is_promoted(f) for f in ("a", "b", "c")] == \
            [True, True, False]

    def test_demotion_only_at_decay_boundary(self):
        clf = ElephantClassifier(spec())
        for _ in range(8):
            clf.observe("hot")
        assert clf.is_promoted("hot")
        # The flow goes quiet; other traffic drives the decay clock.
        demote_events = []
        for i in range(3 * 16):
            _, evs = clf.observe(f"bg-{i}")
            demote_events.extend(e for e in evs if e.kind == DEMOTE)
            if demote_events:
                # 8 -> 4 -> 2 (still >= demote_threshold) -> 1: the third
                # decay is the first allowed to demote.
                assert clf.decays == 3
                break
        assert [e.key for e in demote_events] == ["hot"]
        assert not clf.is_promoted("hot")

    def test_hysteresis_band_prevents_flap(self):
        """A flow hovering at the promote threshold never oscillates."""
        clf = ElephantClassifier(spec(decay_interval=8))
        flaps = 0
        for round_ in range(40):
            for _ in range(8):
                _, evs = clf.observe("hover")
                flaps += sum(1 for e in evs if e.key == "hover")
        # One promotion ever; the refreshed estimate never decays below
        # demote_threshold, so no demote/re-promote churn.
        assert flaps == 1
        assert clf.demotions == 0

    def test_same_stream_same_decisions(self):
        keys = [f"f{i % 13}" for i in range(600)]
        a, b = ElephantClassifier(spec()), ElephantClassifier(spec())
        log_a = [a.observe(k) for k in keys]
        log_b = [b.observe(k) for k in keys]
        assert log_a == log_b
        assert a.snapshot() == b.snapshot()

    def test_reset_restores_initial_state(self):
        clf = ElephantClassifier(spec())
        for _ in range(8):
            clf.observe("flow")
        clf.reset()
        assert clf.snapshot() == {
            "observations": 0, "promotions": 0, "demotions": 0,
            "decays": 0, "promoted_now": 0,
        }


class TestTenantOf:
    def test_deterministic_and_in_range(self):
        for key in ("a", 17, (1, 2)):
            t = tenant_of(key, 8, seed=5)
            assert 0 <= t < 8
            assert tenant_of(key, 8, seed=5) == t

    def test_single_tenant_shortcut(self):
        assert tenant_of("anything", 1) == 0

    def test_rejects_zero_tenants(self):
        with pytest.raises(ValueError):
            tenant_of("k", 0)

"""Metrics registry: instruments, percentile accuracy, exporters."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry.metrics import (
    DEFAULT_BUCKET_GROWTH,
    NOOP_COUNTER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_snapshot(self):
        c = Counter("x")
        c.inc(3)
        assert c.snapshot() == {"type": "counter", "value": 3.0}


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7


class TestHistogram:
    def test_percentile_accuracy_uniform(self):
        h = Histogram("lat")
        for v in range(1, 10001):
            h.observe(float(v))
        # Log-bucketed: any quantile within the bucket growth's relative error.
        for q in (0.5, 0.9, 0.99):
            exact = q * 10000
            assert h.percentile(q) == pytest.approx(exact, rel=0.10)

    def test_endpoints_exact(self):
        h = Histogram("lat")
        for v in (3.0, 77.0, 1234.0):
            h.observe(v)
        assert h.percentile(0.0) == 3.0
        assert h.percentile(1.0) == 1234.0

    def test_percentiles_keys(self):
        h = Histogram("lat")
        h.observe(5.0)
        ps = h.percentiles()
        assert set(ps) == {"p50", "p90", "p99", "p99_9"}

    def test_bounded_memory(self):
        h = Histogram("lat")
        for i in range(100_000):
            h.observe(1.0 + (i % 5000))
        # 1..5001 ns spans ~13 doublings -> ~8 buckets each at 2^(1/8).
        assert len(h.buckets) < 120

    def test_merge(self):
        a, b = Histogram("lat"), Histogram("lat")
        for v in (10.0, 20.0):
            a.observe(v)
        for v in (30.0, 40.0):
            b.observe(v)
        a.merge(b)
        assert a.count == 4
        assert a.sum == 100.0
        assert a.min == 10.0 and a.max == 40.0

    def test_merge_growth_mismatch(self):
        with pytest.raises(ValueError):
            Histogram("a").merge(Histogram("b", growth=2.0))

    def test_empty(self):
        h = Histogram("lat")
        assert h.percentile(0.5) == 0.0
        assert h.mean == 0.0
        snap = h.snapshot()
        assert snap["count"] == 0 and snap["min"] == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Histogram("lat").observe(-1.0)


def _bucket_edge(i, side):
    """``growth**i`` and its neighbouring doubles: where ``np.log`` and
    ``math.log`` may pick different buckets."""
    edge = DEFAULT_BUCKET_GROWTH ** i
    return {-1: math.nextafter(edge, 0.0), 0: edge,
            1: math.nextafter(edge, math.inf)}[side]


_latency = st.one_of(
    st.floats(min_value=0.0, max_value=1e12),
    st.builds(_bucket_edge, st.integers(-8, 320), st.sampled_from([-1, 0, 1])),
)


def _state(h):
    return (list(h.buckets.items()), h.count, h.sum, h.min, h.max)


class TestObserveMany:
    @given(st.lists(_latency, max_size=300), st.lists(_latency, max_size=50))
    def test_bit_identical_to_observe_loop(self, first, second):
        looped, bulk = Histogram("lat"), Histogram("lat")
        for values in (first, second):
            for v in values:
                looped.observe(v)
            bulk.observe_many(np.asarray(values, dtype=np.float64))
        assert _state(bulk) == _state(looped)

    def test_sum_is_sequential_not_pairwise(self):
        values = [1e16, 1.0, 1.0, -0.0] * 50 + [3.0]
        looped, bulk = Histogram("lat"), Histogram("lat")
        for v in values:
            looped.observe(v)
        bulk.observe_many(values)
        assert bulk.sum == looped.sum != math.fsum(values)

    def test_invalid_value_raises_like_the_loop(self):
        looped, bulk = Histogram("lat"), Histogram("lat")
        for h, observe in ((looped, None), (bulk, "many")):
            with pytest.raises(ValueError):
                if observe:
                    h.observe_many([5.0, -1.0, 7.0])
                else:
                    for v in (5.0, -1.0, 7.0):
                        h.observe(v)
        assert _state(bulk) == _state(looped)


class TestRegistry:
    def test_create_or_get(self):
        reg = MetricsRegistry()
        c1 = reg.counter("drops")
        c1.inc()
        assert reg.counter("drops") is c1
        assert reg.counter("drops").value == 1

    def test_kind_mismatch(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_disabled_hands_out_noops(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("drops")
        assert c is NOOP_COUNTER
        c.inc(1000)  # no-op, no error
        assert len(reg) == 0
        assert reg.snapshot() == {}

    def test_snapshot_json_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("drops").inc(3)
        reg.histogram("lat").observe(42.0)
        parsed = json.loads(reg.to_json())
        assert parsed["drops"]["value"] == 3
        assert parsed["lat"]["count"] == 1

    def test_prometheus_text(self):
        reg = MetricsRegistry()
        reg.gauge('mlffr_mpps{technique="scr",cores="4"}', help="rate").set(26.5)
        reg.histogram("lat").observe(100.0)
        text = reg.to_prometheus()
        assert '# TYPE mlffr_mpps gauge' in text
        assert 'mlffr_mpps{technique="scr",cores="4"} 26.5' in text
        assert '# TYPE lat histogram' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert 'lat_count 1' in text

    def test_prometheus_histogram_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (10.0, 100.0, 1000.0):
            h.observe(v)
        lines = [l for l in reg.to_prometheus().splitlines()
                 if l.startswith("lat_bucket")]
        counts = [int(l.rsplit(" ", 1)[1]) for l in lines]
        assert counts == sorted(counts)
        assert counts[-1] == 3


class TestPrometheusExposition:
    """Exposition-spec conformance: one HELP/TYPE block per base metric
    regardless of labelled children, and label-value escaping."""

    def test_type_and_help_once_per_base_with_labelled_children(self):
        reg = MetricsRegistry()
        reg.gauge('mlffr_mpps{technique="scr",cores="2"}', help="rate").set(16.0)
        reg.gauge('mlffr_mpps{technique="scr",cores="4"}').set(26.5)
        reg.gauge('mlffr_mpps{technique="so",cores="4"}').set(9.0)
        text = reg.to_prometheus()
        assert text.count("# TYPE mlffr_mpps gauge") == 1
        assert text.count("# HELP mlffr_mpps rate") == 1
        # All three children sample under the single block.
        assert text.count("mlffr_mpps{") == 3

    def test_help_precedes_type_precedes_first_sample(self):
        reg = MetricsRegistry()
        reg.counter('drops{cause="ring"}', help="drop count").inc(2)
        reg.counter('drops{cause="wire"}').inc(1)
        lines = reg.to_prometheus().splitlines()
        assert lines[0] == "# HELP drops drop count"
        assert lines[1] == "# TYPE drops counter"
        assert all(l.startswith("drops{") for l in lines[2:4])

    def test_help_taken_from_any_child_that_has_one(self):
        reg = MetricsRegistry()
        reg.counter('drops{cause="ring"}').inc(1)
        reg.counter('drops{cause="wire"}', help="drop count").inc(1)
        assert "# HELP drops drop count" in reg.to_prometheus()

    def test_label_value_escaping_round_trips(self):
        reg = MetricsRegistry()
        reg.counter('hits{path="C:\\\\dir",note="say \\"hi\\"\\nbye"}').inc(1)
        text = reg.to_prometheus()
        # Backslash, quote, and newline survive as their escaped forms --
        # the sample line itself must stay a single physical line.
        line = next(l for l in text.splitlines() if l.startswith("hits{"))
        assert '\\\\' in line and '\\"' in line and "\\n" in line
        assert "\n" not in line

    def test_help_text_escapes_newline_and_backslash(self):
        reg = MetricsRegistry()
        reg.gauge("g", help="line one\nline \\ two").set(1.0)
        text = reg.to_prometheus()
        assert "# HELP g line one\\nline \\\\ two" in text

    def test_histogram_children_share_one_block_with_le_labels(self):
        reg = MetricsRegistry()
        reg.histogram('lat{core="0"}').observe(10.0)
        reg.histogram('lat{core="1"}').observe(20.0)
        text = reg.to_prometheus()
        assert text.count("# TYPE lat histogram") == 1
        assert 'lat_bucket{core="0",le="+Inf"} 1' in text
        assert 'lat_bucket{core="1",le="+Inf"} 1' in text
        assert 'lat_count{core="0"} 1' in text


class TestMergeSnapshot:
    """Cross-process aggregation: merging a snapshot == merging the
    registry that produced it (the scenario executor's telemetry path)."""

    @staticmethod
    def _worker_registry():
        reg = MetricsRegistry()
        reg.counter("iters").inc(5)
        reg.gauge('mlffr_mpps{cores="2"}').set(16.25)
        h = reg.histogram("lat")
        for v in (10.0, 42.0, 42.0, 9000.0):
            h.observe(v)
        return reg

    def test_merge_into_empty_equals_source(self):
        src = self._worker_registry()
        dst = MetricsRegistry()
        dst.merge_snapshot(src.snapshot())
        assert dst.snapshot() == src.snapshot()

    def test_counters_accumulate_and_histograms_fold(self):
        dst = MetricsRegistry()
        dst.merge_snapshot(self._worker_registry().snapshot())
        dst.merge_snapshot(self._worker_registry().snapshot())
        snap = dst.snapshot()
        assert snap["iters"]["value"] == 10
        assert snap["lat"]["count"] == 8
        assert snap["lat"]["min"] == 10.0 and snap["lat"]["max"] == 9000.0
        # every bucket count exactly doubled
        single = self._worker_registry().snapshot()["lat"]["buckets"]
        assert snap["lat"]["buckets"] == [[ub, n * 2] for ub, n in single]

    def test_gauge_takes_latest(self):
        dst = MetricsRegistry()
        dst.gauge("g").set(1.0)
        src = MetricsRegistry()
        src.gauge("g").set(7.0)
        dst.merge_snapshot(src.snapshot())
        assert dst.gauge("g").value == 7.0

    def test_histogram_growth_mismatch_rejected(self):
        src = MetricsRegistry()
        src.histogram("lat", growth=4.0).observe(10.0)
        dst = MetricsRegistry()
        dst.histogram("lat")  # default growth
        with pytest.raises(ValueError):
            dst.merge_snapshot(src.snapshot())

    def test_disabled_registry_ignores(self):
        dst = MetricsRegistry(enabled=False)
        dst.merge_snapshot(self._worker_registry().snapshot())
        assert len(dst) == 0

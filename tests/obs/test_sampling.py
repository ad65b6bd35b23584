"""Span sampling determinism: the sampled index set is a pure function of
(seed, rate) — independent of query order, probe rate, process, and of
whether faults fire."""

import multiprocessing
import random

import pytest

from repro.obs.sampling import SpanSampler, sample_unit, splitmix64


class TestSplitmix64:
    def test_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    def test_64_bit_range(self):
        for x in (0, 1, 7, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(x) < 2**64

    def test_distinct_inputs_distinct_outputs(self):
        outs = {splitmix64(i) for i in range(1000)}
        assert len(outs) == 1000


class TestSampleUnit:
    def test_unit_interval(self):
        for i in range(500):
            assert 0.0 <= sample_unit(7, i) < 1.0

    def test_seed_changes_values(self):
        a = [sample_unit(1, i) for i in range(64)]
        b = [sample_unit(2, i) for i in range(64)]
        assert a != b


class TestSpanSampler:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            SpanSampler(0, -0.1)
        with pytest.raises(ValueError):
            SpanSampler(0, 1.5)

    def test_query_order_irrelevant(self):
        s = SpanSampler(7, 0.1)
        indices = list(range(2000))
        forward = {i for i in indices if s.sampled(i)}
        random.Random(3).shuffle(indices)
        shuffled = {i for i in indices if s.sampled(i)}
        assert forward == shuffled

    def test_two_instances_agree(self):
        # No per-instance state: a worker process rebuilding the sampler
        # from (seed, rate) makes identical decisions.
        a = SpanSampler(7, 0.05).sampled_indices(3000)
        b = SpanSampler(7, 0.05).sampled_indices(3000)
        assert a == b

    def test_sampled_indices_matches_pointwise(self):
        s = SpanSampler(9, 0.2)
        assert s.sampled_indices(500) == [i for i in range(500) if s.sampled(i)]

    def test_rate_monotone_nesting(self):
        # Raising the rate only adds indices — the probe-rate-independence
        # property: a low-rate sample is a subset of every higher-rate one.
        lo = set(SpanSampler(7, 0.02).sampled_indices(5000))
        hi = set(SpanSampler(7, 0.10).sampled_indices(5000))
        assert lo <= hi

    def test_rate_roughly_honored(self):
        n = 20000
        hits = len(SpanSampler(7, 0.05).sampled_indices(n))
        assert 0.03 * n < hits < 0.07 * n

    def test_trace_ids_stable_and_nonzero(self):
        s = SpanSampler(7, 1.0)
        assert s.trace_id(11) == s.trace_id(11)
        assert s.trace_id(11) != s.trace_id(12)
        assert all(s.trace_id(i) != 0 for i in range(100))

    def test_zero_rate_samples_nothing(self):
        assert SpanSampler(7, 0.0).sampled_indices(1000) == []

    def test_full_rate_samples_everything(self):
        assert SpanSampler(7, 1.0).sampled_indices(100) == list(range(100))


class TestMemoisedDecisions:
    """Decisions are memoised per index; they must equal the stateless
    hash whatever order, and however often, the indices are asked."""

    N = 20001

    def _orders(self):
        ascending = list(range(self.N))
        shuffled = ascending[:]
        random.Random(5).shuffle(shuffled)
        return [ascending, ascending[::-1], shuffled]

    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.5, 1.0])
    def test_matches_stateless_hash_in_any_order(self, rate):
        expected = {i: sample_unit(7, i) < rate for i in range(self.N)}
        reused = SpanSampler(7, rate)
        for order in self._orders():
            fresh = SpanSampler(7, rate)
            assert [fresh.sampled(i) for i in order] == [expected[i] for i in order]
            assert [reused.sampled(i) for i in order] == [expected[i] for i in order]

    def test_edge_rates(self):
        assert not any(SpanSampler(3, 0.0).sampled(i) for i in range(self.N))
        assert all(SpanSampler(3, 1.0).sampled(i) for i in range(self.N))

    def test_trace_ids_and_sample_pinned(self):
        # Values recorded before decisions were memoised: the sampled set
        # and every trace id are part of the artifact's byte format.
        s = SpanSampler(7, 0.05)
        assert s.sampled_indices(400) == [
            20, 42, 47, 66, 94, 101, 122, 128, 146, 152, 153, 188, 217, 218,
            220, 226, 303, 309, 326, 356, 369, 387, 389]
        assert [s.trace_id(i) for i in (0, 1, 11, 19999)] == [
            10730967885070608315, 4788773623852633907,
            16131354544006802237, 2128897084696339245]


def _child_sample(args):
    seed, rate, count = args
    return SpanSampler(seed, rate).sampled_indices(count)


class TestProcessIndependence:
    def test_same_set_in_a_worker_process(self):
        # The executor's serial-equals-parallel guarantee, at the sampler
        # level: a worker rebuilding the sampler from the spec alone picks
        # the same packets as the parent.
        parent = SpanSampler(7, 0.05).sampled_indices(2000)
        with multiprocessing.Pool(1) as pool:
            child = pool.map(_child_sample, [(7, 0.05, 2000)])[0]
        assert parent == child

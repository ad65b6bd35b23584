"""Rule-based stateful testing: the cuckoo table vs a model dict under
arbitrary operation interleavings (hypothesis drives the schedule), and
the table's per-key hash memo vs a table that recomputes every key's
buckets on each call, and the memo holding resident keys only."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.state import CuckooHashTable

keys = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.text(alphabet="abcxyz", min_size=0, max_size=4),
    st.tuples(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9)),
)
values = st.integers(min_value=-(10**6), max_value=10**6)


class RecomputingTable(CuckooHashTable):
    """The table without its memo (every key's buckets are hashed anew on
    each call) that walks every bucket index for its entries, as a table
    with all its buckets allocated up front does."""

    def _hashes(self, key):
        self._hash_memo.clear()
        return super()._hashes(key)

    def items(self):
        for h in range(self.bucket_count):
            yield from self._buckets[h] or ()


def assert_same_table(table, reference, keys):
    assert [table.lookup(k) for k in keys] == [reference.lookup(k) for k in keys]
    assert list(table.items()) == list(reference.items())
    assert table.bucket_count == reference.bucket_count
    assert table.grow_events == reference.grow_events
    assert len(table) == len(reference)


class CuckooMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.table = CuckooHashTable(capacity=8, slots_per_bucket=2, allow_grow=True)
        self.reference = RecomputingTable(capacity=8, slots_per_bucket=2, allow_grow=True)
        self.model = {}
        self.seen = []

    @rule(key=keys, value=values)
    def insert(self, key, value):
        self.table.insert(key, value)
        self.reference.insert(key, value)
        self.model[key] = value
        self.seen.append(key)

    @rule(key=keys)
    def delete(self, key):
        assert self.table.delete(key) == (key in self.model)
        assert self.reference.delete(key) == (key in self.model)
        self.model.pop(key, None)

    @rule(key=keys)
    def lookup(self, key):
        assert self.table.lookup(key) == self.model.get(key)

    @rule()
    def clear(self):
        self.table.clear()
        self.reference.clear()
        self.model.clear()

    @invariant()
    def size_matches(self):
        assert len(self.table) == len(self.model)

    @invariant()
    def contents_match(self):
        assert dict(self.table.items()) == self.model

    @invariant()
    def load_factor_sane(self):
        assert 0.0 <= self.table.load_factor <= 1.0

    @invariant()
    def memo_changes_nothing(self):
        assert_same_table(self.table, self.reference, self.seen)

    @invariant()
    def memo_holds_resident_keys_only(self):
        assert set(self.table._hash_memo) == set(self.model)


TestCuckooStateful = CuckooMachine.TestCase
TestCuckooStateful.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)


@settings(max_examples=40, deadline=None)
@given(
    inserts=st.lists(st.tuples(keys, values), min_size=40, max_size=120),
    deletes=st.lists(keys, max_size=20),
    max_kicks=st.integers(min_value=0, max_value=8),
)
def test_hash_memo_matches_recomputing_across_growth(inserts, deletes, max_kicks):
    """A table grown several times, its memo dropped at each growth,
    stays the table that hashes every key anew: same lookups, entry
    order, geometry and growth count."""
    kw = dict(capacity=2, slots_per_bucket=1, max_kicks=max_kicks)
    table, reference = CuckooHashTable(**kw), RecomputingTable(**kw)
    for key, value in inserts:
        table.insert(key, value)
        reference.insert(key, value)
    for key in deletes:
        assert table.delete(key) == reference.delete(key)
    seen = [k for k, _ in inserts] + deletes
    assert_same_table(table, reference, seen)
    if len({k for k, _ in inserts}) >= 40:
        assert table.grow_events >= 3


def test_memo_is_no_larger_than_a_fixed_table():
    """Looking up or deleting keys a fixed-size table does not hold
    leaves its memo alone: host memory follows resident entries, not
    every key the table was asked about."""
    table = CuckooHashTable(capacity=64, allow_grow=False)
    for i in range(10):
        table.insert(i, i)
    for i in range(10, 2000):
        assert table.lookup(i) is None
        assert not table.delete(i)
    for i in range(5):
        assert table.delete(i)
    assert sorted(table._hash_memo) == [5, 6, 7, 8, 9]
    assert [table.lookup(i) for i in range(10)] == [None] * 5 + list(range(5, 10))

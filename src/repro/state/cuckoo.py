"""A cuckoo hash table.

The paper implements its programs' key-value dictionaries as a cuckoo hash
table so a lookup costs a single BPF helper call (§4.1).  This is a faithful
software model: two hash functions over fixed-size bucket arrays with
multi-slot buckets, displacement ("cuckoo") insertion with a bounded kick
chain, and optional growth when insertion fails.

The table intentionally exposes bucket geometry (``bucket_count``,
``slots_per_bucket``, ``load_factor``) so tests and benchmarks can reason
about occupancy the way a fixed-size eBPF map forces one to.

Two host-cost measures change nothing observable: a bucket's storage is
allocated when a key first lands in it, and each table remembers the two
bucket indexes of its resident keys until the geometry changes (equal
keys hash alike, as the value-type keys the programs use do).  A key
that is absent, or deleted, is hashed afresh, so the memo is no larger
than the table.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

__all__ = ["CuckooHashTable", "CuckooInsertError"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv1a(data: bytes, seed: int) -> int:
    """64-bit FNV-1a, seeded, used for both cuckoo hash functions."""
    value = _FNV_OFFSET ^ seed
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


def _key_bytes(key: Hashable) -> bytes:
    """Stable byte representation of a key for hashing."""
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode()
    if isinstance(key, int):
        return key.to_bytes(16, "big", signed=True)
    # Fall back to repr for tuples/dataclasses; stable within a process run
    # for value-type keys, which is all the programs use.
    return repr(key).encode()


class CuckooInsertError(RuntimeError):
    """Raised when an insert fails and growth is disabled (table is full)."""


class CuckooHashTable:
    """Two-choice cuckoo hash with multi-slot buckets.

    Parameters
    ----------
    capacity:
        Expected maximum number of entries; sizes the bucket arrays.
    slots_per_bucket:
        Entries per bucket (4 gives >90 % achievable load factor).
    max_kicks:
        Bound on the displacement chain before declaring failure.
    allow_grow:
        When True (default) a failed insert doubles the table and rehashes,
        mirroring a control-plane map resize.  When False, a failed insert
        raises :class:`CuckooInsertError` — the eBPF-style fixed-size regime
        the paper's evaluation had to work within (§4.1).
    """

    def __init__(
        self,
        capacity: int = 1024,
        slots_per_bucket: int = 4,
        max_kicks: int = 128,
        allow_grow: bool = True,
        seed: int = 0,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if slots_per_bucket < 1:
            raise ValueError("slots_per_bucket must be positive")
        self.slots_per_bucket = slots_per_bucket
        self.max_kicks = max_kicks
        self.allow_grow = allow_grow
        self._seed = seed
        self._bucket_count = self._geometry(capacity, slots_per_bucket)
        #: each bucket's entries, in slot order; None for a bucket no key
        #: ever landed in.
        self._buckets: List[Optional[List[Tuple[Hashable, Any]]]] = [
            None] * self._bucket_count
        #: resident key -> its two bucket indexes under the current
        #: geometry.
        self._hash_memo: Dict[Hashable, Tuple[int, int]] = {}
        self._size = 0
        # _kick_cursor makes eviction choice deterministic without an RNG.
        self._kick_cursor = 0
        #: how many times the table doubled; shard-sizing observability —
        #: a control plane that sized the map right sees 0 here.
        self.grow_events = 0

    @staticmethod
    def _geometry(capacity: int, slots: int) -> int:
        """Bucket count: next power of two fitting capacity at ~85 % load."""
        needed = max(2, int(capacity / (slots * 0.85)) + 1)
        count = 1
        while count < needed:
            count <<= 1
        return count

    # -- hashing -----------------------------------------------------------

    def _hashes(self, key: Hashable) -> Tuple[int, int]:
        hashes = self._hash_memo.get(key)
        if hashes is None:
            data = _key_bytes(key)
            h1 = _fnv1a(data, self._seed) & (self._bucket_count - 1)
            h2 = _fnv1a(data, self._seed ^ 0x5BD1E995) & (self._bucket_count - 1)
            if h1 == h2:
                h2 = (h2 + 1) & (self._bucket_count - 1)
            hashes = (h1, h2)
        return hashes

    def _bucket(self, h: int) -> List[Tuple[Hashable, Any]]:
        """Bucket ``h``'s entries, allocated on first use."""
        bucket = self._buckets[h]
        if bucket is None:
            bucket = self._buckets[h] = []
        return bucket

    # -- public API ---------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: Hashable) -> bool:
        return self.lookup(key) is not None

    @property
    def bucket_count(self) -> int:
        return self._bucket_count

    @property
    def load_factor(self) -> float:
        return self._size / (self._bucket_count * self.slots_per_bucket)

    def lookup(self, key: Hashable) -> Optional[Any]:
        """Return the value for ``key`` or None — the single 'helper call'."""
        buckets = self._buckets
        for h in self._hashes(key):
            for k, v in buckets[h] or ():
                if k == key:
                    return v
        return None

    def get(self, key: Hashable, default: Any = None) -> Any:
        value = self.lookup(key)
        return default if value is None else value

    def insert(self, key: Hashable, value: Any) -> None:
        """Insert or update ``key``.

        Updates overwrite in place.  New entries go to the emptier of the two
        candidate buckets; when both are full, existing entries are displaced
        along a bounded kick chain.
        """
        h1, h2 = self._hashes(key)
        for h in (h1, h2):
            bucket = self._buckets[h]
            if bucket is None:
                continue
            for i, (k, _v) in enumerate(bucket):
                if k == key:
                    bucket[i] = (key, value)
                    return
        if self._place(key, value, h1, h2):
            self._hash_memo[key] = (h1, h2)
            self._size += 1
            return
        if not self.allow_grow:
            raise CuckooInsertError(f"cuckoo table full inserting {key!r}")
        self._grow()
        self.insert(key, value)

    def _place(self, key: Hashable, value: Any, h1: int, h2: int) -> bool:
        # Prefer the less-loaded bucket, like a d-left insert.
        if len(self._bucket(h1)) > len(self._bucket(h2)):
            h1, h2 = h2, h1
        for h in (h1, h2):
            bucket = self._bucket(h)
            if len(bucket) < self.slots_per_bucket:
                bucket.append((key, value))
                return True
        # Both full: displace along a kick chain.
        current_key, current_value, home = key, value, h1
        for _ in range(self.max_kicks):
            bucket = self._bucket(home)
            victim_slot = self._kick_cursor % self.slots_per_bucket
            self._kick_cursor += 1
            victim_key, victim_value = bucket[victim_slot]
            bucket[victim_slot] = (current_key, current_value)
            current_key, current_value = victim_key, victim_value
            v1, v2 = self._hashes(current_key)
            home = v2 if home == v1 else v1
            bucket = self._bucket(home)
            if len(bucket) < self.slots_per_bucket:
                bucket.append((current_key, current_value))
                return True
        # Chain exhausted: undo is unnecessary because the displaced item is
        # still held in current_*; re-inserting after growth re-places it.
        self._pending = (current_key, current_value)
        return False

    def _grow(self) -> None:
        """Double the bucket array and rehash everything (plus any pending)."""
        self.grow_events += 1
        entries = list(self.items())
        pending = getattr(self, "_pending", None)
        if pending is not None:
            entries.append(pending)
            self._pending = None
        self._bucket_count *= 2
        self._buckets = [None] * self._bucket_count
        self._hash_memo = {}
        self._size = 0
        for k, v in entries:
            self.insert(k, v)

    def delete(self, key: Hashable) -> bool:
        """Remove ``key``; return True when it was present."""
        for h in self._hashes(key):
            bucket = self._buckets[h]
            if bucket is None:
                continue
            for i, (k, _v) in enumerate(bucket):
                if k == key:
                    bucket.pop(i)
                    self._hash_memo.pop(key, None)
                    self._size -= 1
                    return True
        return False

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        """Entries in bucket order, each bucket's in slot order."""
        for bucket in self._buckets:
            if bucket:
                yield from bucket

    def keys(self) -> Iterator[Hashable]:
        for k, _v in self.items():
            yield k

    def values(self) -> Iterator[Any]:
        for _k, v in self.items():
            yield v

    def clear(self) -> None:
        self._buckets = [None] * self._bucket_count
        self._hash_memo.clear()
        self._size = 0

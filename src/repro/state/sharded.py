"""Sharded state backend for multi-tenant, million-flow table sizing.

The paper's evaluation keeps *one* flow's state hot; a production data
plane holds state for millions of concurrent flows owned by many tenants.
:class:`ShardedStateMap` is the backing store the hybrid placement layer
(`repro.placement`, docs/MULTITENANT.md) hands to the mice path:

* **per-shard cuckoo tables** — the key space is split across ``num_shards``
  independent :class:`~repro.state.cuckoo.CuckooHashTable` instances by a
  seeded FNV-1a hash, so no single table has to grow to the full flow count
  and shard-level occupancy/grow events stay observable per shard;
* **per-tenant namespace keys** — every entry is stored under
  ``(tenant_id, key)``, so two tenants reusing the same 5-tuple can never
  read or clobber each other's state;
* **quota accounting** — each tenant may hold at most ``tenant_quota``
  entries.  Inserting a *new* key past the quota is refused (the caller
  processes the packet statelessly) and recorded under a per-tenant drop
  cause, so a noisy tenant degrades only itself and the damage is visible
  in telemetry.

Updates to existing entries always succeed — quota bounds *residency*, not
write traffic — and deletes return quota headroom to the owning tenant.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

from .cuckoo import CuckooHashTable, _fnv1a, _key_bytes

__all__ = ["ShardedStateMap", "QUOTA_DROP_CAUSE"]

#: Drop-cause label used in telemetry for quota-refused inserts.
QUOTA_DROP_CAUSE = "tenant_quota_exhausted"


class ShardedStateMap:
    """Tenant-namespaced key-value state split across cuckoo shards.

    Parameters
    ----------
    num_shards:
        Independent cuckoo tables the key space is hashed across.
    capacity:
        Expected total entries across all shards; each shard is sized for
        ``capacity / num_shards`` (growth remains enabled per shard, and
        growth events are counted — a well-sized map reports zero).
    tenant_quota:
        Maximum resident entries per tenant; ``None`` disables quotas.
    seed:
        Seeds both the shard-selection hash and each shard's cuckoo hashes,
        so placement is deterministic and reproducible across runs.
    """

    def __init__(
        self,
        num_shards: int = 16,
        capacity: int = 1 << 20,
        tenant_quota: Optional[int] = None,
        seed: int = 0,
        slots_per_bucket: int = 4,
        allow_grow: bool = True,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        if capacity < num_shards:
            raise ValueError("capacity must be >= num_shards")
        if tenant_quota is not None and tenant_quota < 1:
            raise ValueError("tenant_quota must be positive (or None)")
        self.num_shards = num_shards
        self.tenant_quota = tenant_quota
        self._seed = seed
        per_shard = max(1, capacity // num_shards)
        self._shards: List[CuckooHashTable] = [
            CuckooHashTable(
                capacity=per_shard,
                slots_per_bucket=slots_per_bucket,
                allow_grow=allow_grow,
                seed=seed ^ (0x9E3779B9 * (i + 1)),
            )
            for i in range(num_shards)
        ]
        #: resident entries per tenant (quota accounting).
        self._tenant_entries: Dict[int, int] = {}
        #: quota-refused inserts per tenant (the per-tenant drop cause).
        self.quota_drops: Dict[int, int] = {}
        #: (tenant, key) -> its shard: a pure function, hashed once.
        self._shard_memo: Dict[Tuple[int, Hashable], int] = {}

    # -- key plumbing -------------------------------------------------------

    def shard_of(self, tenant_id: int, key: Hashable) -> int:
        """Deterministic shard index for a tenant-namespaced key."""
        stored = (tenant_id, key)
        shard = self._shard_memo.get(stored)
        if shard is None:
            data = tenant_id.to_bytes(8, "big", signed=True) + _key_bytes(key)
            shard = self._shard_memo[stored] = _fnv1a(data, self._seed) % self.num_shards
        return shard

    @staticmethod
    def namespaced(tenant_id: int, key: Hashable) -> Tuple[int, Hashable]:
        """The stored key: tenants can never alias each other's entries."""
        return (tenant_id, key)

    # -- map API ------------------------------------------------------------

    def lookup(self, key: Hashable, tenant_id: int = 0) -> Optional[Any]:
        shard = self._shards[self.shard_of(tenant_id, key)]
        return shard.lookup(self.namespaced(tenant_id, key))

    def update(self, key: Hashable, value: Any, tenant_id: int = 0) -> bool:
        """Insert/overwrite ``key`` for ``tenant_id``.

        Returns True when the entry is resident afterwards; False when a
        *new* entry was refused because the tenant's quota is exhausted
        (recorded in :attr:`quota_drops` — the caller should process the
        packet statelessly and keep forwarding).
        """
        stored = self.namespaced(tenant_id, key)
        shard = self._shards[self.shard_of(tenant_id, key)]
        if shard.lookup(stored) is not None:
            shard.insert(stored, value)  # overwrite: no new residency
            return True
        if (
            self.tenant_quota is not None
            and self._tenant_entries.get(tenant_id, 0) >= self.tenant_quota
        ):
            self.quota_drops[tenant_id] = self.quota_drops.get(tenant_id, 0) + 1
            return False
        shard.insert(stored, value)
        self._tenant_entries[tenant_id] = self._tenant_entries.get(tenant_id, 0) + 1
        return True

    def delete(self, key: Hashable, tenant_id: int = 0) -> bool:
        shard = self._shards[self.shard_of(tenant_id, key)]
        if shard.delete(self.namespaced(tenant_id, key)):
            remaining = self._tenant_entries.get(tenant_id, 0) - 1
            if remaining > 0:
                self._tenant_entries[tenant_id] = remaining
            else:
                self._tenant_entries.pop(tenant_id, None)
            return True
        return False

    def __len__(self) -> int:
        return sum(len(s) for s in self._shards)

    def __contains__(self, key: Hashable) -> bool:
        return self.lookup(key) is not None

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        """All ``((tenant_id, key), value)`` entries, shard by shard."""
        for shard in self._shards:
            for entry in shard.items():
                yield entry

    def tenant_entries(self, tenant_id: int) -> int:
        """Resident entry count charged against ``tenant_id``'s quota."""
        return self._tenant_entries.get(tenant_id, 0)

    @property
    def grow_events(self) -> int:
        """Total cuckoo grow events across shards (0 == sized correctly)."""
        return sum(s.grow_events for s in self._shards)

    def stats_snapshot(self) -> Dict[str, Any]:
        """Sizing + quota observability (what telemetry/inspect report)."""
        return {
            "entries": len(self),
            "num_shards": self.num_shards,
            "grow_events": self.grow_events,
            "shard_entries": [len(s) for s in self._shards],
            "tenant_entries": dict(sorted(self._tenant_entries.items())),
            "quota_drops": dict(sorted(self.quota_drops.items())),
            "drop_cause": QUOTA_DROP_CAUSE,
        }

    def clear(self) -> None:
        for shard in self._shards:
            shard.clear()
        self._tenant_entries.clear()
        self.quota_drops.clear()

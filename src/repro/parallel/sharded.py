"""Sharded (shared-nothing) engines: classic RSS and RSS++ [34].

RSS hashes each packet's flow fields through the NIC's indirection table,
pinning each flow shard to a fixed core — no sharing, no contention, but
throughput is gated by the most loaded core (§2.2): an elephant flow can
never exceed one core's rate.

RSS++ periodically rewrites indirection-table entries to migrate shards
from overloaded to underloaded cores, minimizing imbalance subject to a
migration budget (its optimization trades imbalance against cross-core
state transfers).  Migration granularity is a whole shard, and every
migrated flow's state must bounce to the new core — both effects the paper
calls out as RSS++'s limits (§4.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..cpu.simulator import PerfPacket
from ..nic.rss import RssIndirection
from .base import BaseEngine, hash_column_for_program, hash_for_program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cpu.simulator import PerfTrace

__all__ = ["ShardedRssEngine", "RssPlusPlusEngine"]


class ShardedRssEngine(BaseEngine):
    """Classic RSS sharding: static hash → indirection table → core."""

    name = "rss"

    def __init__(self, *args, indirection_size: int = 128, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.indirection = RssIndirection(self.num_cores, table_size=indirection_size)

    def reset(self) -> None:
        super().reset()
        self.indirection = RssIndirection(
            self.num_cores, table_size=self.indirection.table_size
        )

    def steer(self, pp: PerfPacket) -> int:
        return self.indirection.queue_of(hash_for_program(self.program, pp))

    def service_ns(self, core: int, pp: PerfPacket, start_ns: float) -> float:
        c = self.costs
        counters = self.counters.cores[core]
        if not pp.valid:
            counters.charge_packet(dispatch_ns=c.d, compute_ns=c.c1, state_accesses=0)
            return c.d + c.c1
        miss_frac, spill = self.l2.access(core, pp.key)
        counters.charge_packet(
            dispatch_ns=c.d,
            compute_ns=c.c1 + spill,
            state_accesses=1,
            l2_misses=miss_frac,
            program_ns=c.c1 + spill,
        )
        return c.d + c.c1 + spill

    # -- columnar hot-path hooks (docs/HOTPATH.md) --------------------------------

    def columnar_eligible(self, fault_drops: bool = False) -> bool:
        """Static hash → static table: steering and service are pure
        functions of the packet row, so batched replay is exact.  A fault
        drop is just a lost packet: the replica-free shards charge none."""
        return True

    def steer_batch(self, trace: "PerfTrace", rows: np.ndarray) -> np.ndarray:
        hashes = hash_column_for_program(self.program, trace)[rows]
        size = self.indirection.table_size
        if size & (size - 1) == 0:
            shards = hashes & np.uint32(size - 1)
        else:
            shards = hashes % np.uint32(size)
        table = np.asarray(self.indirection.table, dtype=np.int64)
        return table[shards]

    def service_rows(
        self,
        trace: "PerfTrace",
        rows: np.ndarray,
        miss_frac: np.ndarray,
        spill_ns: np.ndarray,
        history_items: np.ndarray,
        gaps: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        c = self.costs
        return np.where(trace.valid[rows], (c.d + c.c1) + spill_ns, c.d + c.c1)

    def service_row(self, trace: "PerfTrace", row: int, miss_frac: float,
                    spill_ns: float, h: int, gap: int = 0) -> float:
        c = self.costs
        return (c.d + c.c1) + spill_ns if trace.valid[row] else c.d + c.c1

    def service_batch(
        self,
        trace: "PerfTrace",
        rows: np.ndarray,
        cores: np.ndarray,
        miss_frac: np.ndarray,
        spill_ns: np.ndarray,
        history_items: np.ndarray,
        gaps: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        c = self.costs
        services = self.service_rows(trace, rows, miss_frac, spill_ns,
                                     history_items)
        valid = trace.valid[rows]
        compute_col = np.where(valid, c.c1 + spill_ns, c.c1)
        dispatch_col = np.full(len(rows), c.d, dtype=np.float64)
        accesses = valid.astype(np.int64)
        for core in range(self.num_cores):
            sel = np.flatnonzero(cores == core)
            if len(sel) == 0:
                continue
            self.counters.cores[core].charge_batch(
                dispatch_ns=dispatch_col[sel],
                compute_ns=compute_col[sel],
                state_accesses=accesses[sel],
                l2_misses=miss_frac[sel],
                program_ns=compute_col[sel],
            )
        return services


class RssPlusPlusEngine(ShardedRssEngine):
    """RSS++ load-aware shard migration on top of RSS sharding."""

    name = "rss++"

    def __init__(
        self,
        *args,
        rebalance_every: int = 2000,
        imbalance_threshold: float = 0.10,
        max_migrations: int = 8,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.rebalance_every = rebalance_every
        self.imbalance_threshold = imbalance_threshold
        self.max_migrations = max_migrations
        self._shard_load: List[int] = [0] * self.indirection.table_size
        self._since_rebalance = 0
        #: migration generation per shard; a key whose shard migrated pays
        #: one state-line transfer the first time it is touched afterwards.
        self._shard_gen: List[int] = [0] * self.indirection.table_size
        self._key_gen: Dict[object, int] = {}
        self.migrations = 0

    def reset(self) -> None:
        super().reset()
        self._shard_load = [0] * self.indirection.table_size
        self._shard_gen = [0] * self.indirection.table_size
        self._key_gen = {}
        self._since_rebalance = 0
        self.migrations = 0

    def columnar_eligible(self, fault_drops: bool = False) -> bool:
        """RSS++ mutates its steering table mid-run (shard migrations) and
        surcharges first-touch-after-migration services — per-packet order
        matters, so it stays on the scalar event loop."""
        return False

    def steer(self, pp: PerfPacket) -> int:
        shard = self.indirection.shard_of(hash_for_program(self.program, pp))
        self._shard_load[shard] += 1
        self._since_rebalance += 1
        if self._since_rebalance >= self.rebalance_every:
            self._rebalance()
        return self.indirection.table[shard]

    def _rebalance(self) -> None:
        """Greedy version of the RSS++ optimization: move the heaviest shards
        off the most loaded core until imbalance drops below the threshold or
        the migration budget is spent."""
        self._since_rebalance = 0
        loads = [0] * self.num_cores
        for shard, load in enumerate(self._shard_load):
            loads[self.indirection.table[shard]] += load
        total = sum(loads)
        if total == 0:
            return
        target = total / self.num_cores
        for _ in range(self.max_migrations):
            hot = max(range(self.num_cores), key=lambda q: loads[q])
            cold = min(range(self.num_cores), key=lambda q: loads[q])
            if loads[hot] - loads[cold] <= self.imbalance_threshold * total:
                break
            candidates = self.indirection.shards_on(hot)
            if len(candidates) <= 1:
                break
            # Largest shard that fits under the target without overshooting
            # the cold core past the hot one; fall back to the smallest.
            gap = (loads[hot] - loads[cold]) / 2
            movable = [s for s in candidates if 0 < self._shard_load[s] <= gap]
            if not movable:
                break
            shard = max(movable, key=lambda s: self._shard_load[s])
            self.indirection.migrate(shard, cold)
            self._shard_gen[shard] += 1
            loads[hot] -= self._shard_load[shard]
            loads[cold] += self._shard_load[shard]
            self.migrations += 1
        # Exponential decay so the window tracks recent load (RSS++ uses a
        # sliding estimate of shard load).
        self._shard_load = [load // 2 for load in self._shard_load]

    def service_ns(self, core: int, pp: PerfPacket, start_ns: float) -> float:
        base = super().service_ns(core, pp, start_ns)
        if not pp.valid:
            return base
        shard = self.indirection.shard_of(hash_for_program(self.program, pp))
        gen = self._shard_gen[shard]
        if gen and self._key_gen.get(pp.key, 0) != gen:
            # First touch after this shard migrated: the flow's state line
            # must move from the old core.
            self._key_gen[pp.key] = gen
            transfer = self.contention.line_transfer_ns
            counters = self.counters.cores[core]
            counters.transfer_ns += transfer
            counters.l2_misses += 1
            return base + transfer
        return base

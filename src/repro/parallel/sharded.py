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

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from ..cpu.simulator import PerfPacket
from ..nic.rss import RssIndirection
from .base import BaseEngine, Terms, hash_for_program, pick

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
        if not pp.valid:
            return self._charge(core, self.packet_terms(False, 0.0, 0.0))
        miss_frac, spill = self.l2.access(core, pp.key)
        return self._charge(core, self.packet_terms(
            True, miss_frac, spill, self._moved(pp)))

    def _moved(self, pp: PerfPacket) -> bool:
        """Does this valid packet pay a migration surcharge?  Never: RSS
        shards are static."""
        return False

    def packet_terms(self, valid: Any, miss_frac: Any, spill_ns: Any,
                     moved: Any = False) -> Terms:
        """The sharded term function, over one packet's numbers or columns
        alike: ``d + c1`` plus the L2 spill of the packet's own core (an
        invalid packet touches no state: no spill, no miss).  No sharing,
        no contention; a ``moved`` packet (rss++) first pulls its state
        line from the shard's old core: one transfer, and its one access
        is a miss."""
        c = self.costs
        transfer = pick(moved, self.contention.line_transfer_ns, 0.0)
        compute = c.c1 + spill_ns
        return Terms(((c.d + c.c1) + spill_ns) + transfer, compute, transfer,
                     valid, pick(moved, 1.0, miss_frac), compute, 0.0)

    # -- columnar hot-path hooks (docs/HOTPATH.md) --------------------------------

    def columnar_eligible(self, fault_drops: bool = False) -> bool:
        """Static hash → static table: steering and service are pure
        functions of the packet row, so batched replay is exact.  A fault
        drop is just a lost packet: the replica-free shards charge none."""
        return True

    def _shards(self, trace: "PerfTrace") -> np.ndarray:
        """Each packet's shard (indirection-table index), ``shard_of``
        over the whole trace's RSS hashes."""
        hashes = hash_for_program(self.program, trace)
        size = self.indirection.table_size
        if size & (size - 1) == 0:
            return hashes & np.uint32(size - 1)
        return hashes % np.uint32(size)

    def steer_batch(self, trace: "PerfTrace", rows: np.ndarray) -> np.ndarray:
        table = np.asarray(self.indirection.table, dtype=np.int64)
        return table[self._shards(trace)[rows]]

    def row_terms(
        self,
        trace: "PerfTrace",
        rows: Any,
        miss_frac: Any,
        spill_ns: Any,
        history_items: Any,
        gaps: Optional[Any] = None,
    ) -> Terms:
        return self.packet_terms(trace.valid[rows], miss_frac, spill_ns)


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
        #: the shard generations a columnar run starts from, and each
        #: ``(row, shard, gen)`` a rebalance set (:meth:`steer_batch`).
        self._gens_from: Tuple[List[int], List[Tuple[int, int, int]]] = ([], [])

    def reset(self) -> None:
        super().reset()
        self._shard_load = [0] * self.indirection.table_size
        self._shard_gen = [0] * self.indirection.table_size
        self._key_gen = {}
        self._since_rebalance = 0
        self.migrations = 0
        self._gens_from = ([], [])

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

    def _migrated(self, key: object, gen: int) -> bool:
        """Does a service of ``key`` in a shard of generation ``gen`` pay
        the migration surcharge — the key's first touch since its shard
        migrated?  Records the touch; both hot paths ask it, in the
        loop's call order."""
        if gen and self._key_gen.get(key, 0) != gen:
            self._key_gen[key] = gen
            return True
        return False

    def _moved(self, pp: PerfPacket) -> bool:
        """First touch after this packet's shard migrated: the flow's
        state line must move from the old core."""
        shard = self.indirection.shard_of(hash_for_program(self.program, pp))
        return self._migrated(pp.key, self._shard_gen[shard])

    # -- columnar hot-path hooks (docs/HOTPATH.md) --------------------------------

    #: A migrated key's first touch, in call order, decides which service
    #: pays its transfer, wherever its queued packets are served: the
    #: columnar driver serves every core in one walk.
    couples_cores = True

    def columnar_eligible(self, fault_drops: bool = False) -> bool:
        """Steering depends on arrival order only (:meth:`steer_batch`),
        and the merged walk serves each packet in the loop's call order,
        under the shard generations its loop step sees."""
        return True

    def steer_batch(self, trace: "PerfTrace", rows: np.ndarray) -> np.ndarray:
        """``steer`` over the admitted rows in arrival order.  The table is
        constant between rebalances, so each stretch of steers up to the
        next rebalance is one gather; the packet that completes a stretch
        runs the rebalance and takes the new table.  Records the shard
        generations each rebalance sets, stamped with that packet's
        arrival index, for :meth:`coupled_walk` (state advances here)."""
        shards = self._shards(trace)[rows]
        cores = np.empty(len(rows), dtype=np.int64)
        size = self.indirection.table_size
        self._gens_from = (list(self._shard_gen), [])
        pos = 0
        while pos < len(rows):
            end = min(len(rows),
                      pos + max(1, self.rebalance_every - self._since_rebalance))
            stretch = shards[pos:end]
            counts = np.bincount(stretch, minlength=size).tolist()
            self._shard_load = [a + b for a, b in zip(self._shard_load, counts)]
            self._since_rebalance += end - pos
            cores[pos:end] = np.asarray(self.indirection.table)[stretch]
            if self._since_rebalance >= self.rebalance_every:
                before = list(self._shard_gen)
                self._rebalance()
                last = int(stretch[-1])
                cores[end - 1] = self.indirection.table[last]
                row = int(rows[end - 1])
                self._gens_from[1].extend(
                    (row, shard, gen) for shard, (old, gen) in enumerate(
                        zip(before, self._shard_gen)) if gen != old)
            pos = end
        return cores

    def commit_steer_batch(self, count: int) -> None:
        """Nothing left: :meth:`steer_batch` advanced the steer state."""

    def coupled_walk(self, trace: "PerfTrace") -> "_MigrationWalk":
        return _MigrationWalk(self, trace)


class _MigrationWalk:
    """A committed rss++ run's services, in the scalar loop's call order:
    the sharded term function over the live L2 model, with the migration
    surcharge of a key's first service after its shard migrated, under
    the shard generations in force at the service's loop step (the
    rebalances of the packets steered before it)."""

    def __init__(self, engine: RssPlusPlusEngine, trace: "PerfTrace") -> None:
        self.engine = engine
        self.trace = trace
        gens, self._changes = engine._gens_from
        self._gens = list(gens)
        self._applied = 0
        self._table = trace.key_table
        self._keys = trace.key_ids.tolist()
        self._valid = trace.valid.tolist()
        self._shards = engine._shards(trace).tolist()
        #: each served row's L2 miss fraction and spill, and whether it
        #: paid the surcharge, in call order.
        self.miss_frac: List[float] = []
        self.spill: List[float] = []
        self.moved: List[bool] = []

    def serve(self, core: int, row: int, step: int, start: float) -> float:
        engine = self.engine
        valid = self._valid[row]
        miss_frac = spill = 0.0
        moved = False
        if valid:
            changes = self._changes
            while (self._applied < len(changes)
                   and changes[self._applied][0] < step):
                _, shard, gen = changes[self._applied]
                self._gens[shard] = gen
                self._applied += 1
            key = self._table[self._keys[row]]
            miss_frac, spill = engine.l2.access(core, key)
            moved = engine._migrated(key, self._gens[self._shards[row]])
        self.miss_frac.append(miss_frac)
        self.spill.append(spill)
        self.moved.append(moved)
        return engine.packet_terms(valid, miss_frac, spill, moved).service

    def commit(self, rows: np.ndarray, cores: np.ndarray) -> None:
        terms = self.engine.packet_terms(
            self.trace.valid[rows], np.asarray(self.miss_frac, dtype=np.float64),
            np.asarray(self.spill, dtype=np.float64),
            np.asarray(self.moved, dtype=bool))
        self.engine.charge_rows(cores, **terms.charges())

"""Hybrid placement engine: SCR for elephants, RSS sharding for mice.

The paper's techniques are all-or-nothing: pure SCR replicates *every*
flow to every core (paying ``(k-1)·c2`` fast-forward on every packet),
pure RSS pins every flow to one core (capping any elephant at a single
core's rate).  With millions of concurrent flows and Zipf-skewed sizes,
neither is right: only a handful of flows are hot enough for replication
to pay for itself, and everyone else is cheapest left sharded.

:class:`HybridEngine` routes per flow, online:

* an :class:`~repro.placement.ElephantClassifier` watches the stream and
  promotes flows above the (hysteretic) elephant threshold;
* **promoted** flows ride the SCR path — round-robin spray over all
  cores, history fast-forward at the elephant stream's own depth;
* **everyone else** rides RSS sharding through an indirection table
  keyed by the placement layer's seeded FNV over the flow key — the same
  hash family that picks the flow's state shard, so a mouse's packets
  and its state entry stay co-located — with flow state resident in a
  tenant-namespaced :class:`~repro.state.ShardedStateMap` under
  per-tenant quotas (quota exhaustion degrades that tenant to stateless
  forwarding, never drops the packet, and is recorded as a per-tenant
  drop cause);
* every placement change charges its **migration protocol** to the
  packet that triggered it — promotion replicates the flow's state entry
  into all ``k`` replicas (drain-or-replicate handoff), demotion drains
  one replica entry back to the owning shard — so MLFFR numbers include
  the cost of deciding, not just the steady state.

Steering reads classifier state that mutates per packet, but only
packets the wire and PCIe admitted are steered, and nothing in a
packet's route depends on time.  So for a fixed set of admitted rows
every route (core, elephant or mouse, history depth, stateless,
migration charge) is a pure function of (seed, trace, admitted rows).
The columnar hot path exploits that: :meth:`HybridEngine.steer_batch`
makes one exact walk of the classifier and the mice state map over the
admitted rows, in arrival order, and the rest of the run is row math
over the walk's columns.  A search's full-admission probes share one
walk.  Only ``count_wire_overhead=True`` keeps the scalar event loop:
there a packet's wire length, and so its admission, reads the
classifier.  Either way ``--jobs N`` stays bit-identical.  See
docs/MULTITENANT.md for the model and the ``multitenant`` suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Hashable, Optional, Tuple

import numpy as np

from ..core.packet_format import ScrPacketCodec
from ..cpu.simulator import PerfPacket
from ..nic.rss import RssIndirection
from ..placement import ElephantClassifier, PlacementSpec, tenant_of
from ..placement.classifier import PROMOTE
from ..state.cuckoo import _fnv1a, _key_bytes
from ..state.sharded import ShardedStateMap
from ..telemetry.events import EV_HISTORY_DEPTH, EV_SPRAY, RecordBatch
from .base import BaseEngine, Terms, hash_for_program, pick

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cpu.columnar import ColumnarRun
    from ..cpu.simulator import PerfTrace

__all__ = ["HybridEngine"]


class _Placer:
    """One run's steering state: the classifier, the mice state map
    (built when first needed), the elephant stream's sequence counter,
    and the migration totals."""

    def __init__(self, engine: "HybridEngine") -> None:
        self.engine = engine
        self.classifier = ElephantClassifier(engine.placement)
        self._state: Optional[ShardedStateMap] = None
        self.eseq = 0
        self.migrations = 0
        self.migration_ns_total = 0.0

    @property
    def state(self) -> ShardedStateMap:
        if self._state is None:
            self._state = self.engine._new_state_map()
        return self._state

    def route(self, key: Hashable, valid: bool,
              nic_hash: int) -> Tuple[int, int, float, bool]:
        """Steer one packet: its core, its elephant sequence number (0 for
        a mouse), the migration ns it triggered, and whether it runs
        stateless (an invalid packet, or a mouse whose tenant is over
        quota)."""
        engine = self.engine
        if not valid:
            # Stateless packets never touch the classifier; plain RSS
            # over the program's NIC hash.
            return engine.indirection.queue_of(nic_hash), 0, 0.0, True
        promoted, events = self.classifier.observe(key)
        migration_ns = 0.0
        for event in events:
            self.migrations += 1
            if event.kind == PROMOTE:
                # Drain-or-replicate handoff: the flow's entry leaves its
                # shard and is installed into all k per-core replicas.
                migration_ns += (engine.num_cores
                                 * engine.contention.line_transfer_ns)
                if self._state is not None:
                    self._state.delete(event.key, engine._flow(event.key)[1])
            else:
                # Demotion drains one replica's entry back to the shard.
                migration_ns += engine.contention.line_transfer_ns
        if migration_ns:
            self.migration_ns_total += migration_ns
        if promoted:
            # Round-robin spray over the elephant stream.
            self.eseq += 1
            core = (self.eseq - 1) % engine.num_cores
            return core, self.eseq, migration_ns, False
        core, tenant = engine._flow(key)
        count = self.state.lookup(key, tenant)
        # Quota-exhausted tenants degrade to stateless forwarding; the
        # packet still ships (the drop cause names the *state entry*).
        resident = self.state.update(key, (count or 0) + 1, tenant)
        return core, 0, migration_ns, not resident

    def counters(self) -> Dict[str, object]:
        """The steer-time half of the placement summary."""
        clf = self.classifier.snapshot()
        # A map never built (no valid mouse steered yet) is an empty one.
        state = (self._state.stats_snapshot() if self._state is not None
                 else {"entries": 0, "grow_events": 0, "quota_drops": {}})
        return {
            "promotions": clf["promotions"],
            "demotions": clf["demotions"],
            "decays": clf["decays"],
            "promoted_now": clf["promoted_now"],
            "migrations": self.migrations,
            "migration_ns_total": self.migration_ns_total,
            "statemap_entries": state["entries"],
            "statemap_grow_events": state["grow_events"],
            "tenant_quota_drops": dict(state["quota_drops"]),
        }


@dataclass(frozen=True)
class _Walk:
    """One exact steering walk over a run's admitted rows.  ``cores`` is
    aligned with those rows; the other columns are indexed by trace row
    (zero for rows the walk did not steer).  Read-only."""

    cores: np.ndarray
    #: the elephant stream's sequence number (rank + 1); 0 for a mouse.
    seq: np.ndarray
    #: runs stateless: an invalid packet, or a mouse whose tenant's quota
    #: refused its state entry.
    stateless: np.ndarray
    #: migration ns charged to the packet that triggered it.
    migration: np.ndarray
    #: :meth:`_Placer.counters` at the end of the walk.
    counters: Dict[str, object]


class HybridEngine(BaseEngine):
    """Per-flow SCR/RSS placement with modeled migration costs."""

    name = "hybrid"

    def __init__(
        self,
        *args,
        placement: Optional[PlacementSpec] = None,
        indirection_size: int = 128,
        state_shards: int = 8,
        state_capacity: int = 1 << 16,
        count_wire_overhead: bool = False,
        **kwargs,
    ) -> None:
        """``placement`` configures the classifier, tenancy, and quotas
        (default: a single-tenant :class:`PlacementSpec`).  The scenario
        layer injects it from ``Scenario.placement``, like tracers.

        ``count_wire_overhead`` mirrors :class:`ScrEngine`: when True,
        *promoted* flows' frames carry the sequencer prefix on the wire;
        the Figure 6/7-style in-frame methodology (the suites' default)
        keeps it False.
        """
        super().__init__(*args, **kwargs)
        self.placement = placement if placement is not None else PlacementSpec()
        self.indirection = RssIndirection(
            self.num_cores, table_size=indirection_size
        )
        self.state_shards = state_shards
        self.state_capacity = state_capacity
        self.codec = ScrPacketCodec(
            meta_size=self.program.metadata_size,
            num_slots=self.num_cores,
        )
        self.count_wire_overhead = count_wire_overhead
        #: flow key -> (mice core, tenant): pure functions of the key.
        self._flow_route: Dict[Hashable, Tuple[int, int]] = {}
        #: the full-admission walk of the last trace steered whole.
        self._memo: Optional[Tuple["PerfTrace", _Walk]] = None
        self._start_run()

    def _start_run(self) -> None:
        self._placer = _Placer(self)
        #: the columnar run's steering walk (None on the scalar loop).
        self._walk: Optional[_Walk] = None
        #: per-packet routing decision, recorded at steer time so service
        #: charges match the placement the packet was actually steered
        #: under (placement may move on between steer and service).
        self._route: Dict[int, Tuple[bool, int, bool]] = {}
        #: per-packet migration charge (promotions/demotions this packet
        #: triggered), folded into its service time.
        self._migration_ns: Dict[int, float] = {}
        self.elephant_packets = 0
        self.mice_packets = 0
        self.stateless_packets = 0

    def reset(self) -> None:
        super().reset()
        self._start_run()

    def _new_state_map(self) -> ShardedStateMap:
        return ShardedStateMap(
            num_shards=self.state_shards,
            capacity=self.state_capacity,
            tenant_quota=self.placement.tenant_quota,
            seed=self.placement.seed,
        )

    def _flow(self, key: Hashable) -> Tuple[int, int]:
        """A flow's mice core and tenant.  The core comes from the
        indirection table keyed by the placement layer's seeded FNV over
        the flow key (symmetric by construction — both directions share
        the state key), so a flow's packets land with its state shard."""
        route = self._flow_route.get(key)
        if route is None:
            spec = self.placement
            core = self.indirection.queue_of(_fnv1a(_key_bytes(key), spec.seed))
            route = (core, tenant_of(key, spec.num_tenants, spec.seed))
            self._flow_route[key] = route
        return route

    @property
    def classifier(self) -> ElephantClassifier:
        return self._placer.classifier

    def _steer_counters(self) -> Dict[str, object]:
        """The current run's steer-time totals: the columnar walk's, or
        the scalar loop's live ones."""
        if self._walk is not None:
            return self._walk.counters
        return self._placer.counters()

    @property
    def migration_ns_total(self) -> float:
        return self._steer_counters()["migration_ns_total"]

    # -- protocol -----------------------------------------------------------

    def wire_len(self, pp: PerfPacket) -> int:
        """Promoted flows' frames carry the sequencer prefix (when the
        wire methodology counts it).  Read-only: the simulator calls this
        before ``steer``, so a packet that *causes* a promotion is framed
        under its pre-promotion placement — the sequencer can only tag
        what it already knows."""
        if self.count_wire_overhead and pp.valid and (
            self.classifier.is_promoted(pp.key)
        ):
            return pp.wire_len + self.codec.overhead_bytes
        return pp.wire_len

    def steer(self, pp: PerfPacket) -> int:
        core, seq, migration_ns, stateless = self._placer.route(
            pp.key, pp.valid, hash_for_program(self.program, pp))
        self._route[pp.index] = (seq, stateless)
        if migration_ns:
            self._migration_ns[pp.index] = migration_ns
        return core

    def record_steer(self, pp: PerfPacket, core: int, now_ns: float) -> None:
        """The spray record of an elephant packet just steered, stamped
        at its arrival ``now_ns`` (counted for all, kept when sampled)."""
        seq = self._route[pp.index][0]
        if self.tracer.enabled and seq:
            self.tracer.emit_sampled(
                self.spans.sampled(pp.index), EV_SPRAY, now_ns, core=core,
                seq=seq, index=pp.index)

    def note_fault_drop(self, core: int, pp: PerfPacket) -> None:
        """A fault stole a steered packet: forget its routing record (any
        migration it triggered has already been charged globally)."""
        self._route.pop(pp.index, None)
        self._migration_ns.pop(pp.index, None)

    def service_ns(self, core: int, pp: PerfPacket, start_ns: float) -> float:
        seq, stateless = self._route.pop(pp.index, (0, False))
        migration_ns = self._migration_ns.pop(pp.index, 0.0)
        miss_frac = spill = 0.0
        if pp.valid and seq and self.tracer.enabled:
            self.tracer.emit_sampled(
                self.spans.sampled(pp.index), EV_HISTORY_DEPTH, start_ns,
                core=core, depth=self._depth(seq), index=pp.index)
        if pp.valid and not stateless:
            miss_frac, spill = self.l2.access(core, pp.key)
        self._tally(pp.valid, seq, stateless)
        return self._charge(core, self._terms(
            pp.valid, seq, stateless, migration_ns, miss_frac, spill))

    def _depth(self, seq: Any) -> Any:
        """An elephant's history depth: its stream's own, not the trace's
        (one packet's, or a column of them)."""
        cap = self.num_cores - 1
        return pick(seq <= cap, seq - 1, cap)

    def _terms(self, valid: Any, seq: Any, stateless: Any, migration_ns: Any,
               miss_frac: Any, spill_ns: Any) -> Terms:
        """The hybrid's term function, over one packet's numbers or columns
        alike, in ``service_ns``'s float order.  An elephant (``seq > 0``)
        pays SCR's ``d + c1 + h·c2`` at its stream's depth, a mouse RSS's
        ``d + c1``; both pay one sketch update per packet (the
        classification path, modeled as a single uncontended atomic), the
        L2 spill unless they run stateless, and the migration they
        triggered.  An elephant adds its spill after dispatch + compute, a
        mouse folds it into compute first.  An invalid packet pays
        ``d + c1``."""
        c = self.costs
        classify_ns = self.contention.atomic_ns
        elephant = seq > 0
        touches = pick(stateless, False, valid)
        history = pick(elephant, self._depth(seq) * c.c2, 0.0)
        compute = pick(elephant, (c.c1 + history) + classify_ns,
                       c.c1 + classify_ns)
        service = pick(elephant, (c.d + compute) + spill_ns,
                       c.d + (compute + spill_ns)) + migration_ns
        compute = pick(valid, compute + spill_ns, c.c1)
        return Terms(pick(valid, service, c.d + c.c1), compute, migration_ns,
                     touches, pick(touches, miss_frac + (migration_ns != 0), 0.0),
                     compute + migration_ns, history)

    def _tally(self, valid: Any, seq: Any, stateless: Any) -> None:
        """Count served packets — one, or columns of them — as elephants,
        mice, and mice running stateless."""
        count = np.count_nonzero if isinstance(seq, np.ndarray) else int
        mice = pick(seq > 0, False, valid)
        self.elephant_packets += int(count(seq > 0))
        self.mice_packets += int(count(mice))
        self.stateless_packets += int(count(pick(stateless, mice, False)))

    # -- columnar hot-path hooks (docs/HOTPATH.md) --------------------------------

    def columnar_eligible(self, fault_drops: bool = False) -> bool:
        """Unless promoted frames carry the sequencer prefix on the wire:
        then a packet's wire length, and so its admission, reads the
        classifier state its predecessors left.  Not under fault drops
        either: a stolen packet's route is forgotten (``note_fault_drop``)
        and the steering walk does not model that."""
        return not self.count_wire_overhead and not fault_drops

    def steer_batch(self, trace: "PerfTrace", rows: np.ndarray) -> np.ndarray:
        """The admitted rows' cores, from one exact steering walk.  The
        walk is the run's routing record (what ``steer`` keeps per packet
        on the scalar loop); a walk over the whole trace is kept for the
        next run that admits every packet of the same trace."""
        if len(rows) == len(trace):
            memo = self._memo
            if memo is None or memo[0] is not trace:
                memo = (trace, self._walk_rows(trace, rows))
                self._memo = memo
            self._walk = memo[1]
        else:
            self._walk = self._walk_rows(trace, rows)
        return self._walk.cores

    def _walk_rows(self, trace: "PerfTrace", rows: np.ndarray) -> _Walk:
        """Steer ``rows`` in arrival order on a fresh :class:`_Placer`,
        exactly as ``steer`` would, recording each route as columns."""
        placer = _Placer(self)
        table = trace.key_table
        hashes = hash_for_program(self.program, trace)[rows].tolist()
        routes = [placer.route(table[kid], valid, nic_hash)
                  for kid, valid, nic_hash in zip(
                      trace.key_ids[rows].tolist(),
                      trace.valid[rows].tolist(), hashes)]
        cores, seq, migration, stateless = zip(*routes) if routes else [()] * 4
        n = len(trace)
        columns = [np.asarray(cores, dtype=np.int64)]
        for values, dtype in ((seq, np.int64), (stateless, bool),
                              (migration, np.float64)):
            column = np.zeros(n, dtype=dtype)
            column[rows] = values
            columns.append(column)
        for column in columns:
            column.setflags(write=False)
        return _Walk(*columns, counters=placer.counters())

    def touches_state(self, trace: "PerfTrace", rows: np.ndarray) -> np.ndarray:
        """Valid packets, except quota-refused mice: they run stateless."""
        return trace.valid[rows] & ~self._walk.stateless[rows]

    def row_terms(
        self,
        trace: "PerfTrace",
        rows: Any,
        miss_frac: Any,
        spill_ns: Any,
        history_items: Any,
        gaps: Optional[Any] = None,
    ) -> Terms:
        """:meth:`_terms` over the walk's routes (the history depth is the
        elephant stream's, fixed at steer time)."""
        walk = self._walk
        return self._terms(trace.valid[rows], walk.seq[rows],
                           walk.stateless[rows], walk.migration[rows],
                           miss_frac, spill_ns)

    def count_committed(self, trace: "PerfTrace", rows: np.ndarray,
                        history_items: np.ndarray,
                        gaps: Optional[np.ndarray]) -> None:
        walk = self._walk
        self._tally(trace.valid[rows], walk.seq[rows], walk.stateless[rows])

    def record_committed(self, trace: "PerfTrace", run: "ColumnarRun",
                         sampled: np.ndarray) -> None:
        """The spray and history-depth records ``steer``/``service_ns``
        emit, for a committed columnar run: every elephant was sprayed at
        its arrival with its elephant sequence number, and every popped
        elephant served at its steer-time depth."""
        tracer = self.tracer
        if not tracer.enabled:
            return
        seq = self._walk.seq
        elephant = seq > 0
        served = run.popped & elephant
        sprayed = sampled[elephant[sampled]]
        rows = sampled[served[sampled]]
        tracer.count(EV_SPRAY, int(np.count_nonzero(elephant)) - len(sprayed))
        tracer.count(EV_HISTORY_DEPTH,
                     int(np.count_nonzero(served)) - len(rows))
        tracer.stage_columns(RecordBatch(
            EV_SPRAY, sprayed, run.arrivals[sprayed], run.cores[sprayed],
            fields=(("seq", seq[sprayed]), ("index", sprayed))))
        tracer.stage_columns(RecordBatch(
            EV_HISTORY_DEPTH, rows, run.starts[rows], run.cores[rows],
            fields=(("depth", self._depth(seq[rows])), ("index", rows))))

    def placement_summary(self) -> dict:
        """Placement/quota counters for ``SimResult.placement_stats``
        (the hook ``simulate`` probes, mirroring ``fault_summary``)."""
        steer = self._steer_counters()
        drops = dict(steer["tenant_quota_drops"])
        return {
            "promotions": steer["promotions"],
            "demotions": steer["demotions"],
            "decays": steer["decays"],
            "promoted_now": steer["promoted_now"],
            "migrations": steer["migrations"],
            "migration_ns_total": steer["migration_ns_total"],
            "elephant_packets": self.elephant_packets,
            "mice_packets": self.mice_packets,
            "stateless_packets": self.stateless_packets,
            "statemap_entries": steer["statemap_entries"],
            "statemap_grow_events": steer["statemap_grow_events"],
            "tenant_quota_drops": drops,
            "tenant_quota_drops_total": sum(drops.values()),
        }

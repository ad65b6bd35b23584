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

The engine is deliberately scalar-only (``columnar_eligible`` stays
False): steering depends on classifier state that mutates per packet, so
it takes the simulator's scalar event loop, where its decisions are a
pure function of (seed, packet order) — ``--jobs N`` stays bit-identical.
See docs/MULTITENANT.md for the model and the ``multitenant`` suite.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.packet_format import ScrPacketCodec
from ..cpu.simulator import PerfPacket
from ..nic.rss import RssIndirection
from ..placement import ElephantClassifier, PlacementSpec, tenant_of
from ..placement.classifier import PROMOTE
from ..state.cuckoo import _fnv1a, _key_bytes
from ..state.sharded import ShardedStateMap
from ..telemetry.events import EV_HISTORY_DEPTH, EV_SPRAY
from .base import BaseEngine, hash_for_program

__all__ = ["HybridEngine"]


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
        self.classifier = ElephantClassifier(self.placement)
        self.indirection = RssIndirection(
            self.num_cores, table_size=indirection_size
        )
        self.state_shards = state_shards
        self.state_capacity = state_capacity
        self.mice_state = ShardedStateMap(
            num_shards=state_shards,
            capacity=state_capacity,
            tenant_quota=self.placement.tenant_quota,
            seed=self.placement.seed,
        )
        self.codec = ScrPacketCodec(
            meta_size=self.program.metadata_size,
            num_slots=self.num_cores,
        )
        self.count_wire_overhead = count_wire_overhead
        #: elephant stream round-robin cursor and sequence counter (the
        #: history depth is the *elephant* stream's, not the whole trace's:
        #: only promoted packets are sprayed and fast-forwarded).
        self._rr = 0
        self._eseq = 0
        #: per-packet routing decision, recorded at steer time so service
        #: charges match the placement the packet was actually steered
        #: under (placement may move on between steer and service).
        self._route: Dict[int, Tuple[bool, int, bool]] = {}
        #: per-packet migration charge (promotions/demotions this packet
        #: triggered), folded into its service time.
        self._migration_ns: Dict[int, float] = {}
        #: flow key -> hashed bytes memo for the mice steering hash.
        self._flow_bytes: Dict[object, bytes] = {}
        self.elephant_packets = 0
        self.mice_packets = 0
        self.stateless_packets = 0
        self.migrations = 0
        self.migration_ns_total = 0.0

    def reset(self) -> None:
        super().reset()
        self.classifier.reset()
        self.indirection = RssIndirection(
            self.num_cores, table_size=self.indirection.table_size
        )
        self.mice_state = ShardedStateMap(
            num_shards=self.state_shards,
            capacity=self.state_capacity,
            tenant_quota=self.placement.tenant_quota,
            seed=self.placement.seed,
        )
        self._rr = 0
        self._eseq = 0
        self._route = {}
        self._migration_ns = {}
        self._flow_bytes = {}
        self.elephant_packets = 0
        self.mice_packets = 0
        self.stateless_packets = 0
        self.migrations = 0
        self.migration_ns_total = 0.0

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

    def _steer_rss(self, pp: PerfPacket) -> int:
        """Mice steering: the indirection table keyed by the placement
        layer's seeded FNV over the flow key (symmetric by construction —
        both directions share the state key), so a flow's packets land
        with its state shard.  Stateless/invalid packets fall back to the
        program's NIC hash."""
        if not pp.valid:
            return self.indirection.queue_of(hash_for_program(self.program, pp))
        data = self._flow_bytes.get(pp.key)
        if data is None:
            data = _key_bytes(pp.key)
            self._flow_bytes[pp.key] = data
        return self.indirection.queue_of(_fnv1a(data, self.placement.seed))

    def steer(self, pp: PerfPacket) -> int:
        if not pp.valid:
            # Stateless packets never touch the classifier; plain RSS.
            self._route[pp.index] = (False, 0, True)
            return self._steer_rss(pp)
        promoted, events = self.classifier.observe(pp.key)
        migration_ns = 0.0
        for event in events:
            self.migrations += 1
            if event.kind == PROMOTE:
                # Drain-or-replicate handoff: the flow's entry leaves its
                # shard and is installed into all k per-core replicas.
                migration_ns += self.num_cores * self.contention.line_transfer_ns
                tenant = tenant_of(
                    event.key, self.placement.num_tenants, self.placement.seed
                )
                self.mice_state.delete(event.key, tenant)
            else:
                # Demotion drains one replica's entry back to the shard.
                migration_ns += self.contention.line_transfer_ns
        if migration_ns:
            self.migration_ns_total += migration_ns
            self._migration_ns[pp.index] = (
                self._migration_ns.get(pp.index, 0.0) + migration_ns
            )
        if promoted:
            self._eseq += 1
            h = min(max(self._eseq - 1, 0), self.num_cores - 1)
            core = self._rr
            self._rr = (self._rr + 1) % self.num_cores
            self._route[pp.index] = (True, h, False)
            return core
        tenant = tenant_of(pp.key, self.placement.num_tenants,
                           self.placement.seed)
        count = self.mice_state.lookup(pp.key, tenant)
        resident = self.mice_state.update(
            pp.key, (count or 0) + 1, tenant
        )
        # Quota-exhausted tenants degrade to stateless forwarding; the
        # packet still ships (the drop cause names the *state entry*).
        self._route[pp.index] = (False, 0, not resident)
        return self._steer_rss(pp)

    def record_steer(self, pp: PerfPacket, core: int, now_ns: float) -> None:
        """The spray record of an elephant packet just steered, stamped
        at its arrival ``now_ns`` (counted for all, kept when sampled)."""
        if self.tracer.enabled and self._route[pp.index][0]:
            self.tracer.emit_sampled(
                self.spans.sampled(pp.index), EV_SPRAY, now_ns, core=core,
                seq=self._eseq, index=pp.index)

    def note_fault_drop(self, core: int, pp: PerfPacket) -> None:
        """A fault stole a steered packet: forget its routing record (any
        migration it triggered has already been charged globally)."""
        self._route.pop(pp.index, None)
        self._migration_ns.pop(pp.index, None)

    def service_ns(self, core: int, pp: PerfPacket, start_ns: float) -> float:
        c = self.costs
        counters = self.counters.cores[core]
        if not pp.valid:
            counters.charge_packet(dispatch_ns=c.d, compute_ns=c.c1,
                                   state_accesses=0)
            return c.d + c.c1
        elephant, h, stateless = self._route.pop(
            pp.index, (False, 0, False)
        )
        migration_ns = self._migration_ns.pop(pp.index, 0.0)
        # The classification path itself is not free: one sketch update
        # per packet, modeled as a single uncontended atomic.
        classify_ns = self.contention.atomic_ns
        if elephant:
            self.elephant_packets += 1
            if self.tracer.enabled:
                self.tracer.emit_sampled(
                    self.spans.sampled(pp.index), EV_HISTORY_DEPTH, start_ns,
                    core=core, depth=h, index=pp.index)
            history = h * c.c2
            compute = c.c1 + history + classify_ns
            miss_frac, spill = self.l2.access(core, pp.key)
            total = c.d + compute + spill + migration_ns
            counters.charge_packet(
                dispatch_ns=c.d,
                compute_ns=compute + spill,
                transfer_ns=migration_ns,
                state_accesses=1,
                l2_misses=miss_frac + (1.0 if migration_ns else 0.0),
                program_ns=compute + spill + migration_ns,
                history_ns=history,
            )
            return total
        self.mice_packets += 1
        if stateless:
            self.stateless_packets += 1
            compute = c.c1 + classify_ns
            counters.charge_packet(
                dispatch_ns=c.d,
                compute_ns=compute,
                transfer_ns=migration_ns,
                state_accesses=0,
                program_ns=compute + migration_ns,
            )
            return c.d + compute + migration_ns
        miss_frac, spill = self.l2.access(core, pp.key)
        compute = c.c1 + classify_ns + spill
        counters.charge_packet(
            dispatch_ns=c.d,
            compute_ns=compute,
            transfer_ns=migration_ns,
            state_accesses=1,
            l2_misses=miss_frac + (1.0 if migration_ns else 0.0),
            program_ns=compute + migration_ns,
        )
        return c.d + compute + migration_ns

    # ``columnar_eligible`` stays the BaseEngine default (False): steering
    # reads classifier state that mutates per packet, so the scalar event
    # loop is the reference and only path (docs/HOTPATH.md fallback rules).

    def placement_summary(self) -> dict:
        """Placement/quota counters for ``SimResult.placement_stats``
        (the hook ``simulate`` probes, mirroring ``fault_summary``)."""
        clf = self.classifier.snapshot()
        state = self.mice_state.stats_snapshot()
        return {
            "promotions": clf["promotions"],
            "demotions": clf["demotions"],
            "decays": clf["decays"],
            "promoted_now": clf["promoted_now"],
            "migrations": self.migrations,
            "migration_ns_total": self.migration_ns_total,
            "elephant_packets": self.elephant_packets,
            "mice_packets": self.mice_packets,
            "stateless_packets": self.stateless_packets,
            "statemap_entries": state["entries"],
            "statemap_grow_events": state["grow_events"],
            "tenant_quota_drops": state["quota_drops"],
            "tenant_quota_drops_total": sum(state["quota_drops"].values()),
        }

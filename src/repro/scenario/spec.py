"""Declarative experiment specs: the single vocabulary for "one run".

Every figure, ablation, perf suite, and CLI sweep used to hand-roll the
same stack — trace synthesis → NIC → engine → simulator → MLFFR — each
with its own copy of the packet-size, seed, and cores conventions.  A
:class:`Scenario` freezes all of those knobs into one hashable value
object; :mod:`repro.scenario.build` is the only place that turns one
into runnable objects.

Two frozen dataclasses:

* :class:`TraceSpec` — everything that determines a synthesized workload
  (distribution, flows, packet cap, seed, direction, truncation size).
  Its :meth:`~TraceSpec.content_hash` keys the on-disk trace cache.
* :class:`Scenario` — a TraceSpec plus the measured configuration
  (program, technique, cores, line rate, burst, engine kwargs).  Equal
  scenarios produce bit-identical MLFFR results by construction, whether
  they run serially or on a worker process.

The content hash covers a schema version (:data:`SPEC_SCHEMA`), so any
incompatible change to the canonical shape invalidates old cache
entries and old saved grids at once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Tuple

from ..parallel.registry import technique_names
from ..programs.registry import make_program, program_names

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..faults.spec import FaultSpec
    from ..placement.spec import PlacementSpec

__all__ = [
    "SPEC_SCHEMA",
    "PACKET_SIZE_DEFAULT",
    "PACKET_SIZE_CONNTRACK",
    "SINGLE_FLOW_WORKLOAD",
    "MAX_NUM_FLOWS",
    "EngineKwargs",
    "packet_size_for",
    "freeze_engine_kwargs",
    "TraceSpec",
    "Scenario",
    "scenario_grid",
]

#: Bump on any incompatible change to the canonical spec shape; part of
#: every content hash, so old cache entries stop matching automatically.
#: 2: scenarios carry an optional FaultSpec (repro.faults).
#: 3: scenarios carry an optional PlacementSpec (repro.placement) for
#:    tenancy and elephant/mice placement.
SPEC_SCHEMA = 3

#: Upper bound on synthesized flow counts — generous headroom over the
#: multitenant suite's 10^6-flow ceiling while still catching sign slips
#: and unit mistakes (e.g. passing bytes where a count belongs).
MAX_NUM_FLOWS = 16_000_000

#: Fixed packet sizes used across baselines (§4.2).
PACKET_SIZE_DEFAULT = 192
PACKET_SIZE_CONNTRACK = 256

#: The Figure 1 workload: one elephant TCP connection.
SINGLE_FLOW_WORKLOAD = "single-flow"

#: Engine construction kwargs, frozen as sorted (name, value) pairs so
#: the spec stays hashable and picklable.
EngineKwargs = Tuple[Tuple[str, object], ...]

#: Value types allowed inside engine kwargs: JSON scalars only, so the
#: canonical hash and the multiprocess pickle round-trip agree.
_SCALARS = (bool, int, float, str, type(None))


def packet_size_for(program: str) -> int:
    """The §4.1/§4.2 default: 256 B for conntrack (larger metadata), 192 B
    for everything else."""
    return PACKET_SIZE_CONNTRACK if program == "conntrack" else PACKET_SIZE_DEFAULT


def freeze_engine_kwargs(kwargs: Optional[Mapping[str, object]]) -> EngineKwargs:
    """Sorted, validated (name, value) pairs from an engine-kwargs dict."""
    items = sorted((kwargs or {}).items())
    for name, value in items:
        if not isinstance(value, _SCALARS):
            raise TypeError(
                f"engine kwarg {name!r} must be a scalar (bool/int/float/"
                f"str/None), got {type(value).__name__}; runtime objects "
                "like tracers are wired by the builder, not the spec"
            )
    return tuple(items)


def _content_hash(payload: Dict[str, object]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TraceSpec:
    """Everything that determines a synthesized evaluation workload.

    ``packet_size`` is the on-wire truncation (§4.2); ``None`` keeps the
    synthesized sizes (the functional CLI path).  ``workload`` is a
    :data:`~repro.traffic.distributions.TRACE_DISTRIBUTIONS` name or
    :data:`SINGLE_FLOW_WORKLOAD`.
    """

    workload: str
    num_flows: int = 60
    max_packets: int = 4000
    seed: int = 7
    bidirectional: bool = False
    packet_size: Optional[int] = PACKET_SIZE_DEFAULT

    def __post_init__(self) -> None:
        if self.num_flows < 1:
            raise ValueError("need at least one flow")
        if self.max_packets < 1:
            raise ValueError("need at least one packet")
        if self.packet_size is not None and self.packet_size < 1:
            raise ValueError("packet_size must be positive (or None)")

    @property
    def display_name(self) -> str:
        """The name a freshly synthesized trace would carry."""
        if self.workload == SINGLE_FLOW_WORKLOAD:
            return SINGLE_FLOW_WORKLOAD
        return f"{self.workload}-{self.num_flows}flows"

    def canonical_dict(self) -> Dict[str, object]:
        data = dataclasses.asdict(self)
        data["schema"] = SPEC_SCHEMA
        return data

    def content_hash(self) -> str:
        """Hex digest keying the on-disk trace cache."""
        return _content_hash(self.canonical_dict())

    def with_seed(self, seed: int) -> "TraceSpec":
        return dataclasses.replace(self, seed=seed)


@dataclass(frozen=True)
class Scenario:
    """One fully specified measurement: workload + technique + machine.

    Construct through :meth:`create`, which validates names against the
    program/technique registries and applies the paper's packet-size and
    direction conventions.  ``collect_latency`` and ``profile`` are
    measurement options (they never change the MLFFR series), included
    in the hash so "what exactly ran" stays content-addressed.
    """

    program: str
    technique: str
    cores: int
    trace: TraceSpec
    line_rate_gbps: float = 100.0
    burst_size: int = 1
    engine_kwargs: EngineKwargs = ()
    collect_latency: bool = False
    profile: bool = False
    #: optional fault regime (repro.faults.FaultSpec); None = fault-free.
    #: Participates in the content hash, so a faulted scenario can never
    #: share a cached result with its fault-free twin.
    faults: Optional["FaultSpec"] = None
    #: optional tenancy/placement config (repro.placement.PlacementSpec);
    #: None = single-tenant, no placement engine wiring.  Hashed for the
    #: same reason as ``faults``.
    placement: Optional["PlacementSpec"] = None

    @classmethod
    def create(
        cls,
        program: str,
        workload: str,
        technique: str,
        cores: int,
        *,
        num_flows: int = 60,
        max_packets: int = 4000,
        seed: int = 7,
        packet_size: Optional[int] = None,
        line_rate_gbps: float = 100.0,
        burst_size: int = 1,
        engine_kwargs: Optional[Mapping[str, object]] = None,
        collect_latency: bool = False,
        profile: bool = False,
        faults: Optional["FaultSpec"] = None,
        placement: Optional["PlacementSpec"] = None,
    ) -> "Scenario":
        """Validated scenario with the evaluation's defaults filled in.

        ``packet_size=None`` picks the per-program §4.2 default;
        bidirectionality follows the program (conntrack and friends see
        both directions, as in the paper's methodology).
        """
        known = program_names()
        if program not in known:
            raise ValueError(
                f"unknown program {program!r}; known: {', '.join(known)}"
            )
        if technique not in technique_names():
            raise ValueError(
                f"unknown technique {technique!r}; "
                f"known: {', '.join(technique_names())}"
            )
        if cores < 1:
            raise ValueError("need at least one core")
        if not 1 <= num_flows <= MAX_NUM_FLOWS:
            raise ValueError(
                f"num_flows must be in [1, {MAX_NUM_FLOWS}], got {num_flows}"
            )
        if placement is not None and not 1 <= placement.num_tenants <= num_flows:
            raise ValueError(
                f"num_tenants must be in [1, num_flows={num_flows}] "
                f"(more tenants than flows leaves empty tenants), "
                f"got {placement.num_tenants}"
            )
        size = packet_size if packet_size is not None else packet_size_for(program)
        bidirectional = bool(make_program(program).bidirectional)
        return cls(
            program=program,
            technique=technique,
            cores=cores,
            trace=TraceSpec(
                workload=workload,
                num_flows=num_flows,
                max_packets=max_packets,
                seed=seed,
                bidirectional=bidirectional,
                packet_size=size,
            ),
            line_rate_gbps=line_rate_gbps,
            burst_size=burst_size,
            engine_kwargs=freeze_engine_kwargs(engine_kwargs),
            collect_latency=collect_latency,
            profile=profile,
            faults=faults,
            placement=placement,
        )

    @property
    def workload(self) -> str:
        return self.trace.workload

    def engine_kwargs_dict(self) -> Dict[str, object]:
        return dict(self.engine_kwargs)

    def canonical_dict(self) -> Dict[str, object]:
        return {
            "schema": SPEC_SCHEMA,
            "program": self.program,
            "technique": self.technique,
            "cores": self.cores,
            "trace": self.trace.canonical_dict(),
            "line_rate_gbps": self.line_rate_gbps,
            "burst_size": self.burst_size,
            "engine_kwargs": [list(pair) for pair in self.engine_kwargs],
            "collect_latency": self.collect_latency,
            "profile": self.profile,
            "faults": None if self.faults is None else self.faults.canonical_dict(),
            "placement": (
                None if self.placement is None else self.placement.canonical_dict()
            ),
        }

    def content_hash(self) -> str:
        """Hex digest identifying this scenario (schema-versioned)."""
        return _content_hash(self.canonical_dict())

    def with_seed(self, seed: int) -> "Scenario":
        """The same scenario over a workload re-synthesized with ``seed``
        (the perf suite's repetition policy)."""
        return dataclasses.replace(self, trace=self.trace.with_seed(seed))

    def with_faults(self, faults: Optional["FaultSpec"]) -> "Scenario":
        """The same measurement under a different fault regime."""
        return dataclasses.replace(self, faults=faults)

    def with_placement(self, placement: Optional["PlacementSpec"]) -> "Scenario":
        """The same measurement under a different tenancy/placement config."""
        return dataclasses.replace(self, placement=placement)

    def describe(self) -> str:
        base = (
            f"{self.program} @ {self.workload}, {self.technique}, "
            f"{self.cores} cores (seed {self.trace.seed})"
        )
        if self.faults is not None:
            base += f" [faults: {self.faults.describe()}]"
        if self.placement is not None:
            base += f" [{self.placement.describe()}]"
        return base


def scenario_grid(
    program: str,
    workload: str,
    techniques: Iterable[str],
    cores_list: Iterable[int],
    *,
    engine_kwargs_by_technique: Optional[Mapping[str, Mapping[str, object]]] = None,
    **common: object,
) -> List[Scenario]:
    """The (technique × cores) grid of one figure panel, in sweep order.

    ``common`` is forwarded to :meth:`Scenario.create` (num_flows,
    max_packets, seed, packet_size, ...).  The order is fixed —
    techniques outer, cores inner — so serial and parallel execution
    merge results identically.
    """
    kwargs_map = engine_kwargs_by_technique or {}
    return [
        Scenario.create(
            program, workload, technique, cores,
            engine_kwargs=kwargs_map.get(technique),
            **common,  # type: ignore[arg-type]
        )
        for technique in techniques
        for cores in cores_list
    ]

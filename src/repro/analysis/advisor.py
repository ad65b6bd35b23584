"""Parallelization-technique advisor (``scr-repro/advice/v1``).

Given the static state-access facts of a program (:mod:`.dataflow`), its
measured per-packet cost parameters (Table 4's ``d``/``c1``/``c2``/``t``,
or a fresh profile), and a workload profile, decide which scaling
techniques can run the program, why, and which one wins.  Every predicted
MLFFR comes from the analytic model in :mod:`repro.bench.model` (the one
Figure 11 validates); this module holds no throughput arithmetic:

* **scr** — Appendix A's ``k / (t + (k-1)·c2)``;
* **relaxed_scr** — the merged-delta curve when every written state field
  is commutative; degenerates to plain SCR otherwise;
* **rss** — shared-nothing sharding, gated by the busiest core's traffic
  share under the program's RSS key.  Ineligible when the program keeps
  global or multi-entry state that sharding cannot place (§2.2);
* **shared** — one state map for all cores, atomics or per-entry locks by
  the program's Table 1 row;
* **hybrid** — elephant/mice placement (:mod:`repro.placement`): the hot
  flows ride SCR, everyone else stays RSS-sharded.  Eligible only when the
  program is shardable *and* the workload carries enough concurrent flows
  for placement to pay for the classifier.

The advisor is *pure*: it sees measurements only through its arguments,
so the same inputs always produce the same advice.  Measurement-backed
validation lives in the perf layer (``repro.perf.advise`` and the
``advisor_validation`` suite), which checks these predictions against the
simulated engines for every registered program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..bench.model import (
    predicted_hybrid_mpps,
    predicted_relaxed_scr_mpps,
    predicted_rss_mpps,
    predicted_scr_mpps,
    predicted_shared_mpps,
)
from ..cpu.costmodel import DEFAULT_CONTENTION, ContentionParams, CostParams
from .dataflow import ProgramFacts

__all__ = [
    "ADVICE_SCHEMA",
    "ADVISOR_TECHNIQUES",
    "HYBRID_MIN_FLOWS",
    "WorkloadProfile",
    "TechniqueScore",
    "Advice",
    "advise_program",
    "eligible_techniques",
]

ADVICE_SCHEMA = "scr-repro/advice/v1"

#: The techniques the advisor ranks, in presentation order.
ADVISOR_TECHNIQUES = ("scr", "relaxed_scr", "rss", "shared", "hybrid")

#: Concurrent flows below which elephant/mice placement cannot pay for
#: its classifier: with few flows a purebred technique already places
#: them all, so the hybrid is scored ineligible rather than recommended
#: off sketch noise.
HYBRID_MIN_FLOWS = 1024

@dataclass(frozen=True)
class WorkloadProfile:
    """What the advisor needs to know about the offered traffic.

    The defaults describe the paper's headline adversarial workload — a
    single elephant flow (Figure 1): the hottest key receives everything
    and RSS cannot spread it at all.
    """

    #: fraction of packets hitting the hottest state key.
    hot_key_share: float = 1.0
    #: fraction of packets updating program-global state (NAT pool).
    global_fraction: float = 0.0
    #: k -> busiest core's traffic share when RSS hashes the program's key
    #: fields; missing entries fall back to the single-elephant worst case.
    rss_core_shares: Mapping[int, float] = field(default_factory=dict)
    #: distinct state keys seen concurrently (the hybrid technique's
    #: eligibility gate); the single-elephant default is 1.
    flow_count: int = 1

    def rss_share(self, k: int) -> float:
        if k <= 1:
            return 1.0
        share = self.rss_core_shares.get(k)
        if share is None:
            share = self.hot_key_share  # the elephant pins one core
        # The busiest core can never hold less than a perfect 1/k split.
        return min(1.0, max(share, 1.0 / k))

    @property
    def elephant_share(self) -> float:
        """The hot key's share clamped to [0, 1]: what hybrid replicates."""
        return min(1.0, max(0.0, self.hot_key_share))


@dataclass(frozen=True)
class TechniqueScore:
    """One technique's predicted MLFFR curve."""

    technique: str
    eligible: bool
    #: Mpps at each evaluated core count, in `cores` order; empty when
    #: ineligible.
    mlffr_mpps: Tuple[float, ...]
    cores: Tuple[int, ...]
    reason: str

    @property
    def best(self) -> Tuple[int, float]:
        """(k, Mpps) of the curve's peak; (0, 0.0) when ineligible."""
        if not self.mlffr_mpps:
            return (0, 0.0)
        i = max(range(len(self.mlffr_mpps)), key=lambda j: self.mlffr_mpps[j])
        return (self.cores[i], self.mlffr_mpps[i])

    def at(self, k: int) -> float:
        try:
            return self.mlffr_mpps[self.cores.index(k)]
        except ValueError:
            return 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "technique": self.technique,
            "eligible": self.eligible,
            "cores": list(self.cores),
            "mlffr_mpps": [round(v, 4) for v in self.mlffr_mpps],
            "reason": self.reason,
        }


@dataclass(frozen=True)
class Advice:
    """The advisor's verdict for one program."""

    program: str
    facts: ProgramFacts
    scores: Tuple[TechniqueScore, ...]
    #: technique with the highest predicted MLFFR at the largest k.
    recommended: str
    decision_cores: int

    def score(self, technique: str) -> Optional[TechniqueScore]:
        for s in self.scores:
            if s.technique == technique:
                return s
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": ADVICE_SCHEMA,
            "program": self.program,
            "recommended": self.recommended,
            "decision_cores": self.decision_cores,
            "facts": self.facts.to_dict(),
            "scores": [s.to_dict() for s in self.scores],
        }


def _shardable(facts: ProgramFacts) -> bool:
    return not (facts.has_global_state or facts.multi_key)


def eligible_techniques(facts: ProgramFacts) -> Tuple[str, ...]:
    """The purebred techniques that can run this program at all (hybrid's
    eligibility also depends on the workload; see :func:`advise_program`)."""
    return tuple(
        t for t in ADVISOR_TECHNIQUES
        if t != "hybrid" and (t != "rss" or _shardable(facts))
    )


def _ineligible_reason(
    technique: str, facts: ProgramFacts, workload: WorkloadProfile
) -> Optional[str]:
    """Why ``technique`` cannot run this program on this workload, or None."""
    if technique == "rss" and not _shardable(facts):
        return "global/multi-entry state cannot be placed by flow sharding (§2.2)"
    if technique == "hybrid":
        if not _shardable(facts):
            return (
                "mice sharding needs flow-placeable state; global/"
                "multi-entry state rules out the RSS half (§2.2)"
            )
        if workload.flow_count < HYBRID_MIN_FLOWS:
            return (
                f"only {workload.flow_count} concurrent flows "
                f"(placement pays off from {HYBRID_MIN_FLOWS}); "
                "a purebred technique already places them all"
            )
    return None


def _curve_and_reason(
    technique: str,
    facts: ProgramFacts,
    costs: CostParams,
    workload: WorkloadProfile,
    contention: ContentionParams,
    decision_k: int,
) -> Tuple[Callable[[int], float], str]:
    """``technique``'s model curve (k -> Mpps) and why it has that shape."""
    if technique == "scr":
        return (
            lambda k: predicted_scr_mpps(costs, k),
            "Appendix A: t + (k-1)*c2 history fast-forward per packet",
        )
    if technique == "relaxed_scr":
        if facts.all_commutative:
            return lambda k: predicted_relaxed_scr_mpps(costs, k), (
                "all written fields commutative "
                f"({', '.join(f.field for f in facts.fields)}): history folds "
                "into one merged delta, per-core cost stops growing with k"
            )
        return lambda k: predicted_scr_mpps(costs, k), (
            "non-commutative state: merged-delta pruning unsound, "
            "degenerates to plain SCR"
        )
    if technique == "rss":
        return lambda k: predicted_rss_mpps(costs, workload.rss_share(k)), (
            f"shared-nothing: gated by the busiest core "
            f"({workload.rss_share(decision_k):.0%} of traffic at k={decision_k})"
        )
    if technique == "shared":
        global_fraction = workload.global_fraction if facts.has_global_state else 0.0
        flavor = "per-entry spinlocks" if facts.needs_locks else "hardware atomics"
        return lambda k: predicted_shared_mpps(
            costs, k, workload.hot_key_share, locks=facts.needs_locks,
            global_fraction=global_fraction, contention=contention,
        ), (
            f"{flavor}: min of the per-core rate (every access bounces the "
            "entry line) and the hottest entry's serialization rate"
        )
    e = workload.elephant_share
    return lambda k: predicted_hybrid_mpps(
        costs, k, e, workload.rss_share(k), contention
    ), (
        f"elephants ({e:.0%} of traffic) replicated via SCR, mice stay "
        "sharded; every packet pays one classifier probe"
    )


def advise_program(
    facts: ProgramFacts,
    costs: CostParams,
    workload: Optional[WorkloadProfile] = None,
    cores: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
    contention: ContentionParams = DEFAULT_CONTENTION,
) -> Advice:
    """Score every technique for one program and pick a winner.

    The winner is the eligible technique with the highest predicted MLFFR
    at the largest evaluated core count (scaling is the whole point);
    ineligible techniques are reported with empty curves and a reason.
    """
    if not cores:
        raise ValueError("need at least one core count")
    workload = workload or WorkloadProfile()
    cores = tuple(sorted(set(int(k) for k in cores)))
    if cores[0] < 1:
        raise ValueError("core counts must be >= 1")
    decision_k = cores[-1]
    scores: List[TechniqueScore] = []
    for technique in ADVISOR_TECHNIQUES:
        blocked = _ineligible_reason(technique, facts, workload)
        if blocked is not None:
            scores.append(TechniqueScore(
                technique=technique, eligible=False, mlffr_mpps=(),
                cores=cores, reason=blocked,
            ))
            continue
        curve, reason = _curve_and_reason(
            technique, facts, costs, workload, contention, decision_k
        )
        scores.append(TechniqueScore(
            technique=technique, eligible=True,
            mlffr_mpps=tuple(curve(k) for k in cores),
            cores=cores, reason=reason,
        ))

    recommended = max(
        (s for s in scores if s.eligible),
        key=lambda s: s.at(decision_k),
    ).technique
    return Advice(
        program=facts.program_name or facts.class_name,
        facts=facts,
        scores=tuple(scores),
        recommended=recommended,
        decision_cores=decision_k,
    )

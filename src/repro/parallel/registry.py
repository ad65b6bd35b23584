"""Technique registry: build any evaluated engine by name."""

from __future__ import annotations

from typing import List

from ..programs.base import PacketProgram
from .base import BaseEngine
from .hybrid import HybridEngine
from .relaxed_scr import RelaxedScrEngine
from .scr_technique import ScrEngine
from .sharded import RssPlusPlusEngine, ShardedRssEngine
from .shared import make_shared_engine

__all__ = ["TECHNIQUES", "COLUMNAR_TECHNIQUES", "make_engine", "technique_names"]

#: The four techniques compared throughout §4.2, plus relaxed SCR — the
#: pruned-history variant for commutative state the advisor recommends
#: (docs/ADVISOR.md) — plus the elephant/mice placement hybrid
#: (repro.placement, docs/MULTITENANT.md).
TECHNIQUES = ("scr", "relaxed_scr", "shared", "rss", "rss++", "hybrid")

#: Techniques whose engines can opt into the columnar hot path (a run
#: with a fault plan still falls back to the scalar loop): scr /
#: relaxed_scr (pure round-robin row math) and rss (static
#: indirection-table gather).  ``shared`` engines serialize on
#: time-dependent contention and ``rss++`` mutates its steering table
#: mid-run, so both always run the scalar event loop (docs/HOTPATH.md).
COLUMNAR_TECHNIQUES = ("scr", "relaxed_scr", "rss")


def make_engine(
    technique: str, program: PacketProgram, num_cores: int, **kwargs
) -> BaseEngine:
    """Instantiate a scaling-technique engine.

    ``shared`` picks atomics vs locks by the program's Table 1 row, exactly
    as the evaluation does.
    """
    if technique == "scr":
        return ScrEngine(program, num_cores, **kwargs)
    if technique == "relaxed_scr":
        return RelaxedScrEngine(program, num_cores, **kwargs)
    if technique == "shared":
        return make_shared_engine(program, num_cores, **kwargs)
    if technique == "rss":
        return ShardedRssEngine(program, num_cores, **kwargs)
    if technique == "rss++":
        return RssPlusPlusEngine(program, num_cores, **kwargs)
    if technique == "hybrid":
        return HybridEngine(program, num_cores, **kwargs)
    raise ValueError(
        f"unknown technique {technique!r}; known: {', '.join(technique_names())}"
    )


def technique_names() -> List[str]:
    return list(TECHNIQUES)

"""repro.faults — fault injection, divergence detection, gap recovery.

The paper evaluates SCR on a reliable testbed; this package asks what
happens when the machine misbehaves.  Three pillars:

* **injection** (:mod:`spec`, :mod:`plan`, :mod:`inject`) — a frozen
  :class:`FaultSpec` compiled into a seeded, order-independent
  :class:`FaultPlan` (drops, ring-pop drops, duplicates, bounded
  reordering, history truncation, core stalls/kills);
* **detection** (:mod:`digest`, :mod:`monitor`) — stable state digests
  and a :class:`DivergenceMonitor` that makes silent replica forks
  observable;
* **recovery** (:mod:`recovery`, :mod:`harness`) — sequence-gap
  detection on the SCR history plus epoch-checkpoint resynchronization,
  exercised end to end by :func:`run_chaos` and the curated
  :mod:`matrix` behind ``scr-repro chaos``.

``harness`` and ``matrix`` import the scenario/simulator layers, which
in turn may import this package — so they load lazily via PEP 562.
"""

from __future__ import annotations

from .digest import canonicalize, replica_digests, state_digest
from .inject import SequencerFaults, SimFaults
from .monitor import DivergenceMonitor, DivergenceReport, live_mask, majority_digest
from .plan import FaultPlan
from .recovery import EpochCheckpointer, ResyncOutcome
from .spec import FAULT_SCHEMA, FaultSpec

__all__ = [
    "FAULT_SCHEMA",
    "FaultSpec",
    "FaultPlan",
    "SimFaults",
    "SequencerFaults",
    "canonicalize",
    "state_digest",
    "replica_digests",
    "DivergenceMonitor",
    "DivergenceReport",
    "majority_digest",
    "live_mask",
    "EpochCheckpointer",
    "ResyncOutcome",
    "ChaosOutcome",
    "run_chaos",
    "run_chaos_matrix",
]

_LAZY = {
    "ChaosOutcome": "harness",
    "run_chaos": "harness",
    "run_chaos_matrix": "matrix",
}


def __getattr__(name: str) -> object:
    if name in _LAZY:
        import importlib

        module = importlib.import_module(f".{_LAZY[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""SCR006 — fault-handler hygiene: recovery code must replay from the seed.

The chaos gate's guarantees (``scr-repro chaos --jobs N`` byte-identical
to serial, 100% of injected gaps detected) hold only because every fault
decision is a pure function of ``(seed, tag, index)`` — the
:class:`~repro.faults.plan.FaultPlan` splitmix64 hash.  Fault-injection
and recovery code that reads a wall clock, or draws from *any*
``random``-module RNG, breaks that in one of two ways:

* **wall clocks** make quarantine/resync decisions depend on host timing,
  so a failure seen in CI cannot be replayed locally;
* **process RNGs** — even a *seeded* ``random.Random`` — are stateful:
  their draws depend on call order, which differs between serial and
  ``--jobs N`` execution and between MLFFR probe rates.  The sanctioned
  pattern is the plan's per-index hash, which is order-independent.

The rule covers every module under a ``faults`` package, the SCR-aware
runtime (``core/scr_aware.py``, whose window path quarantines, resyncs
and forks replicas), plus any class whose name marks it as fault/recovery
machinery (``Fault*``, ``*Checkpoint*``, ``*Resync*``, ``*Quarantine*``,
``*Recovery*``, ``*Divergence*``) wherever it lives.
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePath
from typing import Iterator, List, Tuple

from ..findings import Finding
from ..model import ModuleModel
from . import Rule, register
from .engines import _CLOCK_ORIGINS

__all__ = ["FaultHygieneRule"]

#: Class names that mark fault/recovery machinery outside repro/faults.
_RECOVERY_NAME = re.compile(
    r"Fault|Checkpoint|Resync|Quarantine|Recovery|Divergence"
)

#: Modules outside those packages that are recovery code throughout.
_RECOVERY_MODULES = ("core/scr_aware.py",)


@register
class FaultHygieneRule(Rule):
    id = "SCR006"
    title = ("fault/recovery code must not read wall clocks or process "
             "RNGs; randomness comes from the seeded FaultPlan hash")
    paper_ref = "§3.4 determinism, applied to the fault/recovery subsystem"

    def check(self, module: ModuleModel) -> Iterator[Finding]:
        for symbol, root in self._scopes(module):
            yield from self._check_scope(module, symbol, root)

    def _scopes(self, module: ModuleModel) -> List[Tuple[str, ast.AST]]:
        """(symbol prefix, AST root) pairs the rule applies to."""
        path = PurePath(module.path)
        if ({"faults", "obs", "hostprof"} & set(path.parts)
                or path.as_posix().endswith(_RECOVERY_MODULES)):
            return [("", module.tree)]
        return [
            (cls.name, cls.node)
            for cls in module.classes.values()
            if _RECOVERY_NAME.search(cls.name)
        ]

    def _check_scope(
        self, module: ModuleModel, symbol: str, root: ast.AST
    ) -> Iterator[Finding]:
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            origin = module.call_origin(node)
            if origin is None:
                continue
            if origin in _CLOCK_ORIGINS:
                yield self.finding(
                    module, node, symbol,
                    f"wall-clock read {origin}() in fault/recovery code — "
                    "a quarantine or resync decision that depends on host "
                    "timing cannot be replayed from the FaultPlan seed",
                    origin=origin,
                )
            elif origin == "random.Random":
                yield self.finding(
                    module, node, symbol,
                    "random.Random in fault/recovery code — even seeded, "
                    "its draws depend on call order, which differs between "
                    "serial and --jobs runs; use the FaultPlan's "
                    "per-index splitmix64 hash instead",
                    origin=origin,
                )
            elif origin.startswith("random."):
                yield self.finding(
                    module, node, symbol,
                    f"{origin}() draws from the process-wide RNG — fault "
                    "decisions must be pure functions of (seed, tag, "
                    "index) via the injected FaultPlan",
                    origin=origin,
                )

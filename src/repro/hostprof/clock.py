"""Nested host wall-clock phase scopes (``PhaseClock``).

Everything else in the repo measures *simulated* time; this module is the
one sanctioned place that reads the host's ``perf_counter_ns`` so the
harness itself can be profiled.  The design mirrors the telemetry plane's
disabled-singleton idiom: hot paths hoist ``clock.enabled`` into a local
boolean and the shared :data:`NULL_HOSTPROF` instance makes every call a
cheap early return, so dormant guards never perturb simulated results
(pinned by tests/hostprof/test_determinism.py).

Phases form a stack; an entry is keyed by its ``;``-joined path (the same
shape as folded-stack flamegraph lines, see :mod:`repro.hostprof.export`)
and accumulates call count, cumulative wall ns (``total_ns``) and self
wall ns (``self_ns`` = total minus time attributed to child phases).
Snapshots merge associatively via :meth:`PhaseClock.merge_snapshot`, the
same fold shape ``MetricsRegistry.merge_snapshot`` uses for ``--jobs N``
worker telemetry.
"""

from __future__ import annotations

import time
from typing import ContextManager, Dict, List, Mapping, Optional, Protocol

PATH_SEP = ";"


class DeepHook(Protocol):
    """Push/pop callbacks for deep capture (see :mod:`repro.hostprof.deep`)."""

    def on_push(self) -> None: ...

    def on_pop(self, path: str) -> None: ...


class _NullScope:
    """Shared no-op context manager returned by disabled clocks."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


class _PhaseScope:
    """Context manager that pops the phase pushed by :meth:`PhaseClock.phase`."""

    __slots__ = ("_clock",)

    def __init__(self, clock: "PhaseClock") -> None:
        self._clock = clock

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        self._clock.pop()
        return False


_NULL_SCOPE = _NullScope()


class PhaseClock:
    """Hierarchical wall-clock phase accumulator.

    Cold paths use ``with clock.phase("name"):``; hot loops hoist
    ``enabled`` and pair :meth:`push`/:meth:`pop` (nesting) or
    :meth:`now`/:meth:`charge` (leaf charge) explicitly.
    """

    __slots__ = ("enabled", "deep", "_names", "_starts", "_child", "_entries")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.deep: Optional[DeepHook] = None
        self._names: List[str] = []
        self._starts: List[int] = []
        self._child: List[int] = []
        # path -> [calls, total_ns, self_ns]
        self._entries: Dict[str, List[int]] = {}

    # -- hot-path primitives ------------------------------------------------

    def now(self) -> int:
        """Raw host timestamp (0 when disabled, so guards stay one branch)."""
        if not self.enabled:
            return 0
        return time.perf_counter_ns()  # scrlint: disable=SCR004,SCR006

    def push(self, name: str) -> None:
        """Open a nested phase.  Reads the clock last so bookkeeping is charged
        to the parent, not the child."""
        if not self.enabled:
            return
        if self.deep is not None:
            self.deep.on_push()
        self._names.append(name)
        self._child.append(0)
        self._starts.append(time.perf_counter_ns())  # scrlint: disable=SCR004,SCR006

    def pop(self) -> None:
        """Close the innermost phase and fold its wall time into the tree."""
        if not self.enabled:
            return
        end = time.perf_counter_ns()  # scrlint: disable=SCR004,SCR006
        path = PATH_SEP.join(self._names)
        self._names.pop()
        start = self._starts.pop()
        child = self._child.pop()
        dt = end - start
        entry = self._entries.get(path)
        if entry is None:
            self._entries[path] = [1, dt, dt - child]
        else:
            entry[0] += 1
            entry[1] += dt
            entry[2] += dt - child
        if self._child:
            self._child[-1] += dt
        if self.deep is not None:
            self.deep.on_pop(path)

    def charge(self, name: str, t0: int) -> None:
        """Record ``now() - t0`` as a leaf phase under the current path.

        The hot-loop idiom (one hoisted boolean, two calls)::

            hp_on = clock.enabled
            ...
            t0 = clock.now() if hp_on else 0
            do_work()
            if hp_on:
                clock.charge("work", t0)
        """
        if not self.enabled:
            return
        dt = time.perf_counter_ns() - t0  # scrlint: disable=SCR004,SCR006
        if self._names:
            path = PATH_SEP.join(self._names) + PATH_SEP + name
        else:
            path = name
        entry = self._entries.get(path)
        if entry is None:
            self._entries[path] = [1, dt, dt]
        else:
            entry[0] += 1
            entry[1] += dt
            entry[2] += dt
        if self._child:
            self._child[-1] += dt

    # -- cold-path API ------------------------------------------------------

    def phase(self, name: str) -> ContextManager[None]:
        """``with clock.phase("trace.synthesize"): ...`` scope helper."""
        if not self.enabled:
            return _NULL_SCOPE
        self.push(name)
        return _PhaseScope(self)

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Associatively mergeable per-phase aggregate (JSON-ready)."""
        return {
            path: {"calls": e[0], "total_ns": e[1], "self_ns": e[2]}
            for path, e in self._entries.items()
        }

    def merge_snapshot(
        self,
        snapshot: Mapping[str, Mapping[str, int]],
        prefix: Optional[str] = None,
    ) -> None:
        """Fold another clock's snapshot into this one (PR-4 fold shape).

        ``prefix`` reroots the incoming paths (the executor folds worker
        snapshots under ``worker`` so cross-process CPU time never masquerades
        as parent wall time).
        """
        if not self.enabled:
            return
        for path, agg in snapshot.items():
            key = prefix + PATH_SEP + path if prefix else path
            entry = self._entries.get(key)
            if entry is None:
                self._entries[key] = [
                    int(agg["calls"]),
                    int(agg["total_ns"]),
                    int(agg["self_ns"]),
                ]
            else:
                entry[0] += int(agg["calls"])
                entry[1] += int(agg["total_ns"])
                entry[2] += int(agg["self_ns"])

    def depth(self) -> int:
        """Current nesting depth (0 outside any phase)."""
        return len(self._names)


NULL_HOSTPROF = PhaseClock(enabled=False)
"""Shared disabled singleton: the default for every ``hostprof=`` parameter."""

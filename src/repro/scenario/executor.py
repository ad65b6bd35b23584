"""Scenario grids, serially or over a process pool — same results either way.

MLFFR points are embarrassingly parallel (the paper's Figure 6 grid is
8 panels × 4 techniques × up to 14 core counts), but the repo historically
ran every sweep strictly serially.  :class:`ScenarioExecutor` fans a
scenario list out over a ``ProcessPoolExecutor`` while keeping the
results **bit-identical to serial execution by construction**:

* every worker rebuilds its stack from the scenario spec alone (seeded
  synthesis, seeded engines) — no shared mutable state crosses the
  process boundary;
* results are merged strictly in submission order (``futures[i].result()``
  in index order), so the output list never depends on completion order,
  the scheduler, or any clock;
* per-worker telemetry comes back as registry snapshots and is folded
  into the parent registry in that same deterministic order.

The only thing workers *share* is the content-addressed
:class:`~repro.scenario.cache.TraceCache`, whose writes are atomic.
Event rings are not shipped across processes (they are unbounded-ish and
interleaving would be schedule-dependent); parallel runs aggregate
metrics only, which `scr-repro inspect` reports identically.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, Union

from ..hostprof.clock import NULL_HOSTPROF, PhaseClock
from ..telemetry.artifact import Telemetry
from .build import ScenarioResult, StackBuilder, run_scenario
from .cache import TraceCache
from .spec import Scenario

__all__ = ["ScenarioExecutor"]


def _run_worker(
    scenario: Scenario,
    cache_root: Optional[str],
    instrumented: bool,
    profiled: bool = False,
) -> ScenarioResult:
    """Measure one scenario in a worker process (module-level: picklable).

    Each call builds a fresh :class:`StackBuilder` — per-run state never
    leaks between scenarios — and returns a compacted, picklable result
    carrying the worker's metrics snapshot (and, when ``profiled``, its
    PhaseClock snapshot) for deterministic merging.
    """
    cache = TraceCache(cache_root) if cache_root is not None else None
    tele = Telemetry() if instrumented else None
    clock = PhaseClock(enabled=True) if profiled else NULL_HOSTPROF
    result = run_scenario(
        scenario, builder=StackBuilder(cache, hostprof=clock), telemetry=tele
    )
    if tele is not None:
        result.metrics = tele.registry.snapshot()
    if profiled:
        result.host_phases = clock.snapshot()
    return result.compact()


class ScenarioExecutor:
    """Runs scenario lists; ``jobs > 1`` fans out over processes.

    The serial path shares one :class:`StackBuilder` across calls (so a
    sweep synthesizes each workload once); the parallel path relies on
    the disk cache for the same reuse.  ``telemetry`` is instrumented on
    both paths; parallel workers return metric snapshots that are merged
    into it in submission order.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[TraceCache] = None,
        cache_dir: Optional[Union[str, object]] = None,
        telemetry: Optional[Telemetry] = None,
        hostprof: PhaseClock = NULL_HOSTPROF,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if cache is None and cache_dir is not None:
            cache = TraceCache(str(cache_dir))
        self.jobs = jobs
        self.cache = cache
        self.telemetry = telemetry
        self.hostprof = hostprof
        self._builder = StackBuilder(cache, hostprof=hostprof)

    @property
    def builder(self) -> StackBuilder:
        """The serial path's shared builder, for callers that need its
        memoized workloads outside a grid (e.g. a perf trace to probe at
        fixed rates)."""
        return self._builder

    def run(self, scenarios: Sequence[Scenario]) -> List[ScenarioResult]:
        """Measure every scenario; results are in input order always."""
        if self.jobs == 1 or len(scenarios) <= 1:
            return [
                run_scenario(s, builder=self._builder, telemetry=self.telemetry)
                for s in scenarios
            ]
        return self._run_parallel(scenarios)

    def run_one(self, scenario: Scenario) -> ScenarioResult:
        return self.run([scenario])[0]

    def _run_parallel(
        self, scenarios: Sequence[Scenario]
    ) -> List[ScenarioResult]:
        cache_root = str(self.cache.root) if self.cache is not None else None
        instrumented = self.telemetry is not None and self.telemetry.enabled
        profiled = self.hostprof.enabled
        workers = min(self.jobs, len(scenarios))
        self.hostprof.push("executor.fanout")
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_run_worker, s, cache_root, instrumented,
                                profiled)
                    for s in scenarios
                ]
                # Collect strictly in submission order: the merge (and any
                # telemetry fold-in) is independent of completion order.
                results = [f.result() for f in futures]
        finally:
            self.hostprof.pop()
        if instrumented and self.telemetry is not None:
            for result in results:
                if result.metrics is not None:
                    self.telemetry.registry.merge_snapshot(result.metrics)
        if profiled:
            # Worker CPU time folds under a distinct `worker` root (never
            # under executor.fanout): N workers' summed wall exceeds the
            # parent's fan-out wall by design — that surplus *is* the
            # parallelism. Submission order keeps the fold deterministic.
            for result in results:
                if result.host_phases is not None:
                    self.hostprof.merge_snapshot(
                        result.host_phases, prefix="worker"
                    )
        return results

"""Content-addressed on-disk cache for synthesized workloads.

Without it, every bench re-synthesizes each trace and re-lowers each
perf-trace from scratch.  Synthesis builds only the flows and packets a
capped trace keeps, so that fixed cost is small and split about
evenly between synthesis and lowering.  This cache keys both by the
:meth:`~repro.scenario.spec.TraceSpec.content_hash` (which already folds
in :data:`~repro.scenario.spec.SPEC_SCHEMA`) plus this module's own
:data:`CACHE_SCHEMA`, stored under a ``v<N>/`` directory:

    results/cache/v1/traces/<hash>.scrt     — SCRT binary traces
    results/cache/v1/perf/<program>-<hash>.pkl — lowered PerfTraces

Invalidation rule: bump :data:`CACHE_SCHEMA` whenever trace synthesis,
packet lowering, or the stored formats change semantically — the version
directory changes, so every stale entry stops matching at once (CI keys
its actions cache on this file for the same reason).  Entries that fail
to load (truncated, corrupted, or hand-poisoned files) are deleted and
treated as misses, never trusted.

Writes are atomic (temp file + ``os.replace``), so concurrent executor
workers can warm the same cache without torn entries.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from struct import error as struct_error
from typing import Dict, Optional, Union

from ..cpu.simulator import PerfTrace
from ..traffic.trace import Trace
from .spec import TraceSpec

__all__ = ["CACHE_SCHEMA", "DEFAULT_CACHE_DIR", "TraceCache"]

#: Bump on any semantic change to synthesis/lowering or the on-disk
#: formats; old entries live under the old version directory and are
#: simply never read again.
#: v2: PerfTrace became a struct-of-arrays container and pickles columns
#: only — pre-columnar row-major pickles are orphaned, not loaded.
CACHE_SCHEMA = 2

#: Where the CLI and CI put the cache unless told otherwise.
DEFAULT_CACHE_DIR = "results/cache"


class TraceCache:
    """Trace + perf-trace store under ``<root>/v<CACHE_SCHEMA>/``."""

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.corrupt_evictions = 0

    @property
    def schema_dir(self) -> Path:
        return self.root / f"v{CACHE_SCHEMA}"

    def trace_path(self, spec: TraceSpec) -> Path:
        return self.schema_dir / "traces" / f"{spec.content_hash()}.scrt"

    def perf_path(self, program: str, spec: TraceSpec) -> Path:
        return self.schema_dir / "perf" / f"{program}-{spec.content_hash()}.pkl"

    # -- traces ---------------------------------------------------------------

    def load_trace(self, spec: TraceSpec) -> Optional[Trace]:
        """The cached trace for ``spec``, or ``None`` on miss.

        A present-but-unloadable entry (truncated write, corruption,
        poisoning) is deleted and reported as a miss: the caller
        re-synthesizes and overwrites, so the cache self-heals.
        """
        path = self.trace_path(spec)
        if not path.exists():
            self.misses += 1
            return None
        try:
            trace = Trace.load(path)
        except (ValueError, OSError, struct_error):
            self._discard(path)
            self.corrupt_evictions += 1
            self.misses += 1
            return None
        # SCRT files are named by hash; restore the human-readable name a
        # fresh synthesis would produce so downstream labels match.
        trace.name = spec.display_name
        self.hits += 1
        return trace

    def store_trace(self, spec: TraceSpec, trace: Trace) -> Path:
        """Atomically persist ``trace`` under its spec hash."""
        path = self.trace_path(spec)
        tmp = self._tmp_sibling(path)
        trace.save(tmp)
        os.replace(tmp, path)
        return path

    # -- lowered perf-traces --------------------------------------------------

    def load_perf_trace(self, program: str, spec: TraceSpec) -> Optional[PerfTrace]:
        path = self.perf_path(program, spec)
        if not path.exists():
            self.misses += 1
            return None
        try:
            with path.open("rb") as fh:
                obj = pickle.load(fh)
        except Exception:  # noqa: BLE001 — any unpickling failure is a miss
            self._discard(path)
            self.corrupt_evictions += 1
            self.misses += 1
            return None
        # Poisoning guard: only accept the exact shape we wrote, for the
        # program we were asked about.
        if not isinstance(obj, PerfTrace) or obj.program_name != program:
            self._discard(path)
            self.corrupt_evictions += 1
            self.misses += 1
            return None
        self.hits += 1
        return obj

    def store_perf_trace(self, program: str, spec: TraceSpec, pt: PerfTrace) -> Path:
        path = self.perf_path(program, spec)
        tmp = self._tmp_sibling(path)
        with tmp.open("wb") as fh:
            pickle.dump(pt, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        return path

    # -- bookkeeping ----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt_evictions": self.corrupt_evictions,
        }

    def _tmp_sibling(self, path: Path) -> Path:
        """A same-directory temp path unique per writer process, so
        ``os.replace`` is atomic and concurrent workers never collide."""
        path.parent.mkdir(parents=True, exist_ok=True)
        return path.parent / f".{path.name}.{os.getpid()}.tmp"

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

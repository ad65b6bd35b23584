"""SCR loss recovery — Algorithm 1 from Appendix B.

Each core keeps a single-writer, multi-reader log with one entry per
sequence number.  A log entry is in one of three states:

* **NOT_INIT** — the core has not yet seen any packet covering that
  sequence (modeled as absence from the log);
* **LOST** — the core has seen a later sequence, so it knows this one was
  dropped on the way to it;
* **history bytes** — the metadata for that sequence, written when a packet
  carrying it (in original or piggybacked form) arrived.

A core that detects a gap reads the other cores' logs until it either finds
the missing history (and catches up its private state) or observes LOST on
*every* other core (the packet reached nobody; atomicity allows skipping
it).  While any other core is still NOT_INIT for that sequence the reader
must wait — :class:`LossRecoveryManager` exposes that wait as a *blocked*
state so the single-threaded functional engine can interleave cores the way
truly concurrent cores would, and the Appendix B termination argument
(every core keeps receiving packets ⇒ every wait resolves) can be tested
directly.

One deliberate, conservative deviation from the pseudocode: all log entries
carried by a received packet are written at delivery time, rather than as
the catch-up loop walks them.  The entries are identical; publishing them
earlier can only shorten other cores' waits and never violates
single-writer ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

__all__ = ["LOST", "CatchupEntry", "LossRecoveryManager"]


class _Lost:
    """Sentinel for a log slot known to be lost at that core."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return "LOST"


LOST = _Lost()

#: A catch-up step: (sequence, metadata bytes) — bytes is None when the
#: packet was lost at every core and atomicity lets everyone skip it.
CatchupEntry = Tuple[int, Optional[bytes]]


@dataclass
class _Pending:
    """A core's in-progress walk toward a received packet's sequence."""

    target_seq: int
    next_seq: int
    metas: Dict[int, bytes] = field(default_factory=dict)


class LossRecoveryManager:
    """Per-core logs plus the Algorithm 1 catch-up state machine."""

    def __init__(
        self, num_cores: int, window: int, log_capacity: Optional[int] = None
    ) -> None:
        """``window`` is N: how many sequences each packet carries history for.

        ``log_capacity`` bounds each core's log to that many trailing
        sequences (the real implementation uses 1024 entries with a large
        sequence space, App. B); entries older than
        ``max_seq - log_capacity`` are pruned on delivery.  It must be
        comfortably larger than the window — a peer may still be catching
        up through sequences this core has long passed.
        """
        if num_cores < 1:
            raise ValueError("need at least one core")
        if window < 1:
            raise ValueError("window must be at least 1")
        if log_capacity is not None and log_capacity < 2 * window:
            raise ValueError("log_capacity must be at least twice the window")
        self.num_cores = num_cores
        self.window = window
        self.log_capacity = log_capacity
        self._logs: List[Dict[int, Union[bytes, _Lost]]] = [
            {} for _ in range(num_cores)
        ]
        self._max_seq = [0] * num_cores
        self._pending: List[Optional[_Pending]] = [None] * num_cores
        # Counters are kept per-core so that, under real threads, every
        # slot has a single writer (the same discipline as the logs).
        self._recovered = [0] * num_cores
        self._skipped = [0] * num_cores
        self._blocked_waits = [0] * num_cores
        #: sequences that were lost at every core and skipped for atomicity
        #: (set.add is atomic under the GIL; all writers add, none remove).
        self.skipped_seqs: set = set()

    @property
    def recovered(self) -> int:
        return sum(self._recovered)

    @property
    def skipped(self) -> int:
        return sum(self._skipped)

    @property
    def blocked_waits(self) -> int:
        return sum(self._blocked_waits)

    # -- introspection ---------------------------------------------------------

    def log_entry(self, core: int, seq: int) -> Union[bytes, _Lost, None]:
        """The raw log state: bytes, LOST, or None for NOT_INIT."""
        return self._logs[core].get(seq)

    def max_seq(self, core: int) -> int:
        return self._max_seq[core]

    # -- delivery ---------------------------------------------------------------

    def deliver(self, core: int, seq: int, metas: Dict[int, bytes]) -> None:
        """A packet with sequence ``seq`` carrying ``metas`` reached ``core``.

        ``metas`` maps sequence → metadata bytes for max(1, seq-N+1)..seq.
        Marks the gap (if any) LOST in this core's log, publishes the
        carried entries, and queues the catch-up walk.
        """
        if self._pending[core] is not None:
            raise RuntimeError(
                f"core {core} got a new packet while still catching up; "
                "drain with try_advance first"
            )
        if seq <= self._max_seq[core]:
            raise ValueError(
                f"non-monotonic sequence at core {core}: {seq} after "
                f"{self._max_seq[core]} (no reordering assumed, §3.4)"
            )
        minseq = max(1, seq - self.window + 1)
        log = self._logs[core]
        start = self._max_seq[core] + 1
        for k in range(start, seq + 1):
            if k < minseq:
                log[k] = LOST
            else:
                try:
                    log[k] = metas[k]
                except KeyError:
                    raise ValueError(f"packet {seq} is missing history for {k}") from None
        self._pending[core] = _Pending(target_seq=seq, next_seq=start, metas=dict(metas))
        if self.log_capacity is not None:
            floor = seq - self.log_capacity
            if floor > 0:
                for old in [k for k in log if k <= floor]:
                    del log[old]

    # -- the catch-up walk ------------------------------------------------------

    def try_advance(self, core: int) -> Tuple[List[CatchupEntry], bool]:
        """Advance the core's walk as far as possible.

        Returns (entries, done): ``entries`` is the ordered list of
        sequences the core can now apply to its private state; ``done`` is
        True when the walk reached the received packet itself.  When not
        done, the core is blocked waiting on another core's NOT_INIT slot —
        call again after other cores make progress.
        """
        pending = self._pending[core]
        if pending is None:
            return [], True
        minseq = max(1, pending.target_seq - self.window + 1)
        ready: List[CatchupEntry] = []
        while pending.next_seq <= pending.target_seq:
            k = pending.next_seq
            if k >= minseq:
                ready.append((k, pending.metas[k]))
                pending.next_seq += 1
                self._max_seq[core] = k
                continue
            resolution = self._probe_others(core, k)
            if resolution is _BLOCKED:
                self._blocked_waits[core] += 1
                return ready, False
            if resolution is None:
                self._skipped[core] += 1
                self.skipped_seqs.add(k)
                ready.append((k, None))
            else:
                self._recovered[core] += 1
                ready.append((k, resolution))
            pending.next_seq += 1
            self._max_seq[core] = k
        self._pending[core] = None
        return ready, True

    def _probe_others(self, core: int, seq: int):
        """One pass of the Algorithm 1 wait loop for ``seq``.

        Returns metadata bytes when some other core logged the history,
        None when *every* other core logged LOST (skip for atomicity), or
        the _BLOCKED sentinel when some core is still NOT_INIT.
        """
        all_lost = True
        for other in range(self.num_cores):
            if other == core:
                continue
            entry = self._logs[other].get(seq)
            if entry is None:
                if (
                    self.log_capacity is not None
                    and self._max_seq[other] >= seq
                ):
                    # The peer is past this sequence but pruned its entry
                    # (bounded log): it can no longer supply the history.
                    # Waiting on it would deadlock; treat as LOST.  This is
                    # why log_capacity must dwarf the window (App. B sizes
                    # the log "sufficiently large").
                    continue
                all_lost = False
                continue
            if entry is LOST:
                continue
            return entry
        if all_lost:
            # Vacuously true for a single core: no one received it, skip.
            return None
        return _BLOCKED

    def blocked_cores(self) -> List[int]:
        return [c for c in range(self.num_cores) if self._pending[c] is not None]


class _BlockedType:
    __slots__ = ()


_BLOCKED = _BlockedType()

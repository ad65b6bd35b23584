"""Shared state lines: per-key spinlocks and hardware atomics.

A shared-state update of a key does two things to the key's cache line
at once, and one record models both:

* **bouncing** — a line written by one core and then updated by another
  must travel through the LLC, stalling the accessor for a transfer;
* **serialization** — the update needs the line exclusively for its hold
  time, so the next update of the key cannot begin before the line is
  free: at most 1/hold updates per second, whatever the core count.

An atomic RMW holds the line for one cross-core transfer; a spinlock
holds it for the lock operations plus the guarded update plus handoff
traffic that grows with the number of spinning contenders
(``ContentionParams.lock_hold_ns``).  The evaluation's baselines map onto
these directly: eBPF spinlocks [10] for programs whose updates are too
complex for atomics, ``__sync`` atomics [25] for the counter programs
(Table 1).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

__all__ = ["LineTable"]


class LineTable:
    """Per-key line record: ``[writer, free_at]``, the core that last
    updated the key and the time before which its next update cannot
    begin.

    :meth:`advance` is the one step of both rules: it decides whether
    the update bounced the line, how long it waits for the line, and
    moves the record on.
    """

    def __init__(self) -> None:
        self._lines: Dict[Hashable, List] = {}
        self.accesses = 0
        self.bounces = 0
        #: updates that waited, and their waits' sum (in call order).
        self.contended = 0
        self.total_wait_ns = 0.0

    def advance(
        self,
        core: int,
        key: Hashable,
        start_ns: float,
        holds: Sequence[float],
        lead: float = 0.0,
    ) -> Tuple[bool, float, float]:
        """``core`` updates ``key``, ready at ``start_ns``; returns
        ``(bounced, wait, hold)``.

        The line bounced when another core wrote the key last; a bounced
        update begins ``lead`` ns later (an atomic's read stall comes
        first).  The update waits until the line is free and holds it
        for ``holds[bounced]`` ns.
        """
        self.accesses += 1
        line = self._lines.get(key)
        if line is None:
            # A cold line: free since time 0, and no other core's to move.
            line = self._lines[key] = [core, 0.0]
        bounced = line[0] != core
        hold = holds[bounced]
        if hold < 0:
            raise ValueError("hold time must be non-negative")
        if bounced:
            self.bounces += 1
            line[0] = core
            start_ns += lead
        free_at = line[1]
        if free_at > start_ns:
            wait = free_at - start_ns
            self.contended += 1
            self.total_wait_ns += wait
        else:
            wait = 0.0
        line[1] = start_ns + wait + hold
        return bounced, wait, hold

    def forget(self, key: Hashable) -> None:
        """Drop ``key``'s record: its next update finds a cold line."""
        self._lines.pop(key, None)

    def reset(self) -> None:
        self._lines.clear()
        self.accesses = 0
        self.bounces = 0
        self.contended = 0
        self.total_wait_ns = 0.0

"""The packet-history ring: the software model of the sequencer memory.

Matches the NetFPGA design (§3.3.2, Figure 4c): N rows of fixed-size
metadata, one index pointer.  Per packet, the hardware (i) dumps the whole
memory in row order, (ii) writes the current packet's metadata into the row
at the index pointer, and (iii) increments the pointer modulo N.  The row
at the index pointer after a dump is therefore always the *oldest* entry —
which is why the packet format carries the pointer (§3.3.1).
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = ["HistoryRing"]


class HistoryRing:
    """N-row metadata ring with dump-then-write-then-increment semantics."""

    def __init__(self, num_rows: int, row_bytes: int) -> None:
        if num_rows < 1:
            raise ValueError("need at least one row")
        if row_bytes < 0:
            raise ValueError("row size must be non-negative")
        self.num_rows = num_rows
        self.row_bytes = row_bytes
        self._rows: List[bytes] = [bytes(row_bytes)] * num_rows
        self._index = 0
        self.writes = 0

    @property
    def index_ptr(self) -> int:
        return self._index

    def dump(self) -> List[bytes]:
        """Read out the entire memory in row order (what goes on the wire)."""
        return list(self._rows)

    def push(self, row: bytes) -> None:
        """Write ``row`` at the index pointer and advance it (mod N)."""
        if len(row) != self.row_bytes:
            raise ValueError(
                f"row must be exactly {self.row_bytes} bytes, got {len(row)}"
            )
        self._rows[self._index] = row
        self._index = (self._index + 1) % self.num_rows
        self.writes += 1

    def dump_and_push(self, row: bytes) -> Tuple[List[bytes], int]:
        """The per-packet hardware operation: returns (dump, index pointer).

        The dump and pointer reflect the state *before* the current packet's
        metadata is written, matching the NetFPGA datapath where the memory
        read happens as the packet streams through, and the write + pointer
        increment happen after.
        """
        rows = self.dump()
        ptr = self._index
        self.push(row)
        return rows, ptr

    def reset(self) -> None:
        self._rows = [bytes(self.row_bytes)] * self.num_rows
        self._index = 0
        self.writes = 0

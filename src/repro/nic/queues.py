"""RX descriptor queues: bounded rings between the NIC and each core.

The testbed uses 256 PCIe descriptors per receive queue (§4.1).  When a
core falls behind, its ring fills and the NIC drops arriving packets — the
loss that the MLFFR methodology searches against.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, Optional, TypeVar

T = TypeVar("T")

__all__ = ["RxQueue", "DEFAULT_DESCRIPTORS"]

#: The evaluation configures 256 PCIe descriptors (§4.1).
DEFAULT_DESCRIPTORS = 256


class RxQueue(Generic[T]):
    """A bounded FIFO ring; enqueue on a full ring drops the packet."""

    def __init__(self, capacity: int = DEFAULT_DESCRIPTORS) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._ring: Deque[T] = deque()
        self.enqueued = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def is_full(self) -> bool:
        return len(self._ring) >= self.capacity

    def enqueue(self, item: T) -> bool:
        """Add ``item``; returns False (and counts a drop) on a full ring."""
        if self.is_full:
            self.dropped += 1
            return False
        self._ring.append(item)
        self.enqueued += 1
        return True

    def dequeue(self) -> Optional[T]:
        if not self._ring:
            return None
        return self._ring.popleft()

    def clear(self) -> None:
        self._ring.clear()

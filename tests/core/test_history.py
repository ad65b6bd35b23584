"""History ring: dump-then-write-then-increment hardware semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HistoryRing


def test_starts_zero_filled():
    ring = HistoryRing(4, 3)
    assert ring.dump() == [b"\x00\x00\x00"] * 4
    assert ring.index_ptr == 0


def test_push_writes_at_pointer_and_advances():
    ring = HistoryRing(3, 1)
    ring.push(b"A")
    assert ring.dump() == [b"A", b"\x00", b"\x00"]
    assert ring.index_ptr == 1


def test_pointer_wraps():
    ring = HistoryRing(2, 1)
    for b in (b"A", b"B", b"C"):
        ring.push(b)
    assert ring.index_ptr == 1
    assert ring.dump() == [b"C", b"B"]


def test_dump_and_push_returns_pre_write_state():
    """The hardware dumps the memory before writing the current packet."""
    ring = HistoryRing(3, 1)
    ring.push(b"A")
    rows, ptr = ring.dump_and_push(b"B")
    assert rows == [b"A", b"\x00", b"\x00"]
    assert ptr == 1
    assert ring.dump() == [b"A", b"B", b"\x00"]


def test_row_size_validated():
    ring = HistoryRing(2, 4)
    with pytest.raises(ValueError):
        ring.push(b"short")


def test_reset():
    ring = HistoryRing(2, 1)
    ring.push(b"A")
    ring.reset()
    assert ring.dump() == [b"\x00", b"\x00"]
    assert ring.index_ptr == 0
    assert ring.writes == 0


def test_rejects_bad_geometry():
    with pytest.raises(ValueError):
        HistoryRing(0, 4)
    with pytest.raises(ValueError):
        HistoryRing(4, -1)


def test_zero_width_rows_allowed():
    """Stateless programs have 0-byte metadata; the ring degenerates cleanly."""
    ring = HistoryRing(2, 0)
    ring.push(b"")
    assert ring.dump() == [b"", b""]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.binary(min_size=2, max_size=2), min_size=1, max_size=30))
def test_dump_after_pointer_rotation_is_last_n_chronological(pushes):
    """Walking the dump from the index pointer yields the last N pushes
    oldest-first (zero rows for never-written slots)."""
    n = 4
    ring = HistoryRing(n, 2)
    for row in pushes:
        ring.push(row)
    dump, ptr = ring.dump(), ring.index_ptr
    chron = dump[ptr:] + dump[:ptr]
    expected = ([b"\x00\x00"] * max(0, n - len(pushes)) + pushes)[-n:]
    assert chron == expected

"""The max-plus chain solver: ``_chain`` equals the scalar walk bit for bit.

``b_j = max(b_{j-1}, a_j) + s_j`` solves the wire, the PCIe stage and
every core's FIFO on the columnar hot path.  ``_chain`` guesses the busy
periods from a Lindley estimate and folds each one with the scalar loop's
own adds; these tests pin that its starts and finishes are the bytes
``_chain_scalar`` produces, and that the seeded loop converges without the
scalar fallback where merging one busy period per round could not.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cpu import columnar
from repro.cpu.columnar import _chain, _chain_scalar

#: Arrival grid spacings as the simulator builds them (``j * interval``):
#: most are not exactly representable, so sums land near ties.
_INTERVALS = (0.1, 0.3, 1 / 3, 0.7, 1.0, 2.5, 250.0)


def _assert_bit_identical(arrivals, services, **kw):
    start, finish = _chain(arrivals, services, **kw)
    ref_start, ref_finish = _chain_scalar(arrivals, services)
    assert start.dtype == finish.dtype == np.float64
    assert start.tobytes() == ref_start.tobytes()
    assert finish.tobytes() == ref_finish.tobytes()


@st.composite
def _chains(draw):
    """Nondecreasing, nonnegative arrivals (the callers' grid) with
    services that make underload, overload, bursts and near-ties."""
    n = draw(st.integers(0, 200))
    interval = draw(st.sampled_from(_INTERVALS))
    shape = draw(st.sampled_from(("grid", "bursty", "gaps")))
    if shape == "grid":
        arrivals = np.arange(n) * interval
    elif shape == "bursty":
        # equal-arrival bursts: several packets share one grid slot
        slots = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        arrivals = np.cumsum(np.array(slots, dtype=np.int64)) * interval
    else:
        gaps = draw(st.lists(
            st.floats(0.0, 10.0 * interval, allow_nan=False, allow_infinity=False),
            min_size=n, max_size=n))
        arrivals = np.cumsum(np.array(gaps, dtype=np.float64))
    load = draw(st.sampled_from((0.3, 0.9, 1.0, 1.1, 3.0)))
    tenths = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
    # rounded multiples of the interval: zero services and near-ties
    services = np.round(np.array(tenths, dtype=np.float64) * 0.1 * interval * load, 1)
    return arrivals.astype(np.float64) + 0.0, services


@settings(max_examples=300, deadline=None)
@given(_chains())
@example((np.empty(0), np.empty(0)))
@example((np.array([3.0]), np.array([0.5])))
def test_chain_equals_scalar_walk(case):
    arrivals, services = case
    _assert_bit_identical(arrivals, services)


def test_overload_cascade_converges_without_scalar_walk(monkeypatch):
    """One long first service holds every later packet in one busy period
    of 4,000 rows; the seed finds it in one round.  (Merging one busy
    period per round, from "every packet resets", exceeds the round cap.)"""
    arrivals = np.arange(4000, dtype=np.float64)
    services = np.full(4000, 0.9)
    services[0] = 500.0
    ref_start, ref_finish = _chain_scalar(arrivals, services)

    def forbidden(*_):
        raise AssertionError("_chain fell back to the scalar walk")

    monkeypatch.setattr(columnar, "_chain_scalar", forbidden)
    start, finish = _chain(arrivals, services)
    assert start.tobytes() == ref_start.tobytes()
    assert finish.tobytes() == ref_finish.tobytes()


def test_near_tie_seed_is_corrected_in_a_second_round(monkeypatch):
    """Packet 3 arrives exactly when packet 2 finishes (a reset), but the
    seed's rounded ``S - s`` puts its lead 5.6e-17 below packet 1's and
    guesses no reset.  The second round reads the folded finish and agrees
    with the scalar walk; a one-round cap falls back to it."""
    arrivals = np.arange(5) * 0.3
    services = np.array([0.3, 0.6, 0.0, 0.5, 0.0])
    _assert_bit_identical(arrivals, services)

    calls = []
    reference = columnar._chain_scalar
    monkeypatch.setattr(columnar, "_chain_scalar",
                        lambda a, s: calls.append(1) or reference(a, s))
    _assert_bit_identical(arrivals, services, max_rounds=2)
    assert calls == []
    _assert_bit_identical(arrivals, services, max_rounds=1)
    assert calls == [1]

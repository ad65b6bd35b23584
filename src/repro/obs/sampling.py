"""Deterministic span sampling: a pure function of (seed, packet index).

Whether a packet carries a trace context must not depend on the offered
rate, the MLFFR probe being run, arrival order, or which worker process
evaluates it — otherwise two runs of the same scenario disagree about
which packets were traced and the ``--jobs N`` parity guarantee dies.
The fix is the same one :mod:`repro.faults.plan` uses for fault
decisions: a splitmix64 hash of ``(seed, domain tag, index)`` mapped to
a unit float and compared against the sampling rate.  No state, no call
order, no RNG stream.

The domain tag keeps span sampling statistically independent from the
fault plan even when both run from the same seed: a faulted packet is
neither more nor less likely to be sampled than its clean twin.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["splitmix64", "sample_unit", "SpanSampler"]

_MASK64 = (1 << 64) - 1

#: Domain-separation tag for span sampling (the fault plan uses 0x1D..0x6D).
_SPAN_TAG = 0xB5

_TAG_MIX = 0xA24BAED4963EE407


def splitmix64(x: int) -> int:
    """One splitmix64 step: a high-quality 64-bit mix (public for tests)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix(seed: int, index: int) -> int:
    h = splitmix64((seed & _MASK64) ^ (_SPAN_TAG * _TAG_MIX & _MASK64))
    return splitmix64(h ^ (index & _MASK64))


def sample_unit(seed: int, index: int) -> float:
    """Uniform [0, 1) draw for packet ``index`` under ``seed`` — stateless."""
    return (_mix(seed, index) >> 11) / float(1 << 53)


class SpanSampler:
    """The per-run sampling decision: ``rate`` of packets carry a trace.

    ``sampled(index)`` and ``trace_id(index)`` are pure per-index
    functions; two samplers with the same seed and rate agree everywhere,
    in any process, at any probe rate.  ``rate=0`` disables sampling
    (and :class:`~repro.obs.spans.SpanEmitter` short-circuits on it).

    Every MLFFR probe replays the same trace and asks about the same
    indices, so each decision is hashed once and memoised; ``seed`` and
    ``rate`` are therefore fixed for the sampler's lifetime.
    """

    __slots__ = ("seed", "rate", "_decided")

    def __init__(self, seed: int = 0, rate: float = 0.0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("sampling rate must be in [0, 1]")
        self.seed = seed
        self.rate = rate
        self._decided: Dict[int, bool] = {}

    def sampled(self, index: int) -> bool:
        """Does packet ``index`` carry a trace context?"""
        hit = self._decided.get(index)
        if hit is None:
            hit = self.rate > 0.0 and sample_unit(self.seed, index) < self.rate
            self._decided[index] = hit
        return hit

    def trace_id(self, index: int) -> int:
        """The packet's stable 64-bit trace id (nonzero, seed-dependent)."""
        return _mix(self.seed, index) | 1

    def sampled_indices(self, count: int) -> list:
        """All sampled indices in ``range(count)`` (test/report helper)."""
        return [i for i in range(count) if self.sampled(i)]

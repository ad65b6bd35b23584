"""Flow-size distributions for the three evaluation workloads (Figure 5).

The paper replays (a) a university data-center trace [35], (b) a CAIDA wide
area backbone trace [11], and (c) a synthetic trace drawn from a hyperscalar
data center's flow-size distribution (the DCTCP web-search workload [32]).
None of these captures are redistributable, so we model each as an empirical
flow-size CDF with the published shape and sample flows from it — what
matters to every claim in the paper is the *skew* (elephants vs mice), which
these CDFs preserve.  ``benchmarks/bench_fig5_traces.py`` regenerates the
Figure 5 CDF series from these samplers.
"""

from __future__ import annotations

import bisect
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "EmpiricalCDF",
    "FlowSizeDistribution",
    "EmpiricalFlowSizes",
    "ParetoFlowSizes",
    "LognormalFlowSizes",
    "ZipfFlowSizes",
    "univ_dc_flow_sizes",
    "caida_backbone_flow_sizes",
    "hyperscalar_dc_flow_sizes",
    "zipf_flow_sizes",
    "TRACE_DISTRIBUTIONS",
    "MSS_BYTES",
]

#: Conventional TCP maximum segment size used to convert bytes → packets.
MSS_BYTES = 1460


class EmpiricalCDF:
    """A piecewise log-linear empirical CDF with inverse-transform sampling.

    Points are (value, cumulative probability) with strictly increasing
    values and probabilities; the final probability must be 1.0.
    Interpolation between points is linear in log(value), which is the usual
    way flow-size CDFs are drawn (and matches Figure 5's log-x axes).
    """

    def __init__(self, points: Sequence[Tuple[float, float]]) -> None:
        if len(points) < 2:
            raise ValueError("need at least two CDF points")
        values = [p[0] for p in points]
        probs = [p[1] for p in points]
        if any(v <= 0 for v in values):
            raise ValueError("values must be positive (log interpolation)")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("values must be strictly increasing")
        if any(b < a for a, b in zip(probs, probs[1:])):
            raise ValueError("probabilities must be non-decreasing")
        if not 0.0 <= probs[0] < 1.0 or abs(probs[-1] - 1.0) > 1e-9:
            raise ValueError("probabilities must start below 1 and end at 1.0")
        self._log_values = [math.log(v) for v in values]
        self._probs = list(probs)
        self.values = list(values)

    def quantile(self, u: float) -> float:
        """Inverse CDF: the value at cumulative probability ``u``."""
        if not 0.0 <= u <= 1.0:
            raise ValueError("u must be in [0, 1]")
        if u <= self._probs[0]:
            return math.exp(self._log_values[0])
        idx = bisect.bisect_left(self._probs, u)
        idx = min(idx, len(self._probs) - 1)
        p0, p1 = self._probs[idx - 1], self._probs[idx]
        v0, v1 = self._log_values[idx - 1], self._log_values[idx]
        if p1 == p0:
            return math.exp(v1)
        frac = (u - p0) / (p1 - p0)
        return math.exp(v0 + frac * (v1 - v0))

    def cdf(self, value: float) -> float:
        """Forward CDF, log-linearly interpolated."""
        if value <= self.values[0]:
            return self._probs[0]
        if value >= self.values[-1]:
            return 1.0
        lv = math.log(value)
        idx = bisect.bisect_left(self._log_values, lv)
        v0, v1 = self._log_values[idx - 1], self._log_values[idx]
        p0, p1 = self._probs[idx - 1], self._probs[idx]
        return p0 + (lv - v0) / (v1 - v0) * (p1 - p0)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        u = rng.random(size)
        if size is None:
            return self.quantile(float(u))
        return np.array([self.quantile(float(x)) for x in u])


class FlowSizeDistribution:
    """Base: sample flow sizes in *packets* (≥ 1)."""

    #: human-readable name used by figures.
    name = "base"

    def sample_packets(self, rng: np.random.Generator, count: int) -> List[int]:
        raise NotImplementedError

    def cdf_series(self, points: int = 50) -> Tuple[List[float], List[float]]:
        """(sizes, cumulative fraction) series for plotting (Figure 5)."""
        raise NotImplementedError


class EmpiricalFlowSizes(FlowSizeDistribution):
    """Flow sizes in bytes drawn from an :class:`EmpiricalCDF`."""

    def __init__(self, cdf: EmpiricalCDF, name: str = "empirical") -> None:
        self._cdf = cdf
        self.name = name

    def sample_packets(self, rng: np.random.Generator, count: int) -> List[int]:
        sizes_bytes = self._cdf.sample(rng, count)
        return [max(1, int(math.ceil(s / MSS_BYTES))) for s in sizes_bytes]

    def cdf_series(self, points: int = 50) -> Tuple[List[float], List[float]]:
        lo = math.log10(self._cdf.values[0])
        hi = math.log10(self._cdf.values[-1])
        xs = [10 ** (lo + (hi - lo) * i / (points - 1)) for i in range(points)]
        return xs, [self._cdf.cdf(x) for x in xs]


class ParetoFlowSizes(FlowSizeDistribution):
    """Bounded Pareto flow sizes (packets) — the classic heavy-tail primitive."""

    def __init__(self, alpha: float = 1.2, min_packets: int = 1, max_packets: int = 100_000):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 1 <= min_packets < max_packets:
            raise ValueError("need 1 <= min_packets < max_packets")
        self.alpha = alpha
        self.min_packets = min_packets
        self.max_packets = max_packets
        self.name = f"pareto(a={alpha})"

    def sample_packets(self, rng: np.random.Generator, count: int) -> List[int]:
        u = rng.random(count)
        l, h, a = self.min_packets, self.max_packets, self.alpha
        # Inverse CDF of the bounded Pareto.
        values = (-(u * (h**a - l**a) - h**a) / (h**a * l**a)) ** (-1.0 / a)
        return [max(self.min_packets, min(self.max_packets, int(v))) for v in values]

    def cdf_series(self, points: int = 50) -> Tuple[List[float], List[float]]:
        l, h, a = self.min_packets, self.max_packets, self.alpha
        xs = np.logspace(math.log10(l), math.log10(h), points)
        cdf = (1 - (l / xs) ** a) / (1 - (l / h) ** a)
        return list(xs), list(np.clip(cdf, 0, 1))


class LognormalFlowSizes(FlowSizeDistribution):
    """Lognormal flow sizes (packets), truncated to [1, max_packets]."""

    def __init__(self, mu: float = 1.5, sigma: float = 2.0, max_packets: int = 1_000_000):
        self.mu = mu
        self.sigma = sigma
        self.max_packets = max_packets
        self.name = f"lognormal(mu={mu},sigma={sigma})"

    def sample_packets(self, rng: np.random.Generator, count: int) -> List[int]:
        values = rng.lognormal(self.mu, self.sigma, count)
        return [max(1, min(self.max_packets, int(v))) for v in values]

    def cdf_series(self, points: int = 50) -> Tuple[List[float], List[float]]:
        xs = np.logspace(0, math.log10(self.max_packets), points)
        from math import erf, sqrt

        cdf = [
            0.5 * (1 + erf((math.log(x) - self.mu) / (self.sigma * sqrt(2)))) for x in xs
        ]
        return list(xs), cdf


class ZipfFlowSizes(FlowSizeDistribution):
    """Zipf-ranked flow sizes: flow at rank r carries ~ C / r^s packets.

    Unlike the samplers above this is deterministic given the flow count,
    which makes it useful for constructing worst-case skew (e.g. one
    dominating elephant) in tests and ablations.
    """

    def __init__(
        self,
        exponent: float = 1.0,
        total_packets: int = 100_000,
        packets_per_flow: Optional[int] = None,
    ):
        if exponent <= 0:
            raise ValueError("exponent must be positive")
        self.exponent = exponent
        self.total_packets = total_packets
        #: when set, the packet budget scales as ``packets_per_flow * count``
        #: instead of the fixed ``total_packets`` — flow-count sweeps then
        #: keep the same *shape* (elephant share, tail mass) at every count
        #: rather than starving the tail at high counts.
        self.packets_per_flow = packets_per_flow
        self.name = f"zipf(s={exponent})"

    def sample_packets(self, rng: np.random.Generator, count: int) -> List[int]:
        total = (
            self.packets_per_flow * count
            if self.packets_per_flow is not None
            else self.total_packets
        )
        ranks = np.arange(1, count + 1, dtype=np.float64)
        weights = ranks ** (-self.exponent)
        weights /= weights.sum()
        sizes = np.maximum(1, (weights * total).astype(np.int64))
        # Shuffle so rank order is not arrival order.
        rng.shuffle(sizes)
        return sizes.tolist()

    def cdf_series(self, points: int = 50) -> Tuple[List[float], List[float]]:
        sizes = sorted(self.sample_packets(np.random.default_rng(0), points))
        frac = [(i + 1) / len(sizes) for i in range(len(sizes))]
        return [float(s) for s in sizes], frac


def univ_dc_flow_sizes() -> EmpiricalFlowSizes:
    """University data-center flow sizes, after Benson et al. [35].

    That study reports most DC flows under 10 KB with a long tail past
    100 MB; the CDF below encodes those published shape points (bytes).
    """
    cdf = EmpiricalCDF(
        [
            (100, 0.05),
            (500, 0.30),
            (1_000, 0.45),
            (5_000, 0.70),
            (10_000, 0.80),
            (100_000, 0.92),
            (1_000_000, 0.97),
            (10_000_000, 0.995),
            (100_000_000, 1.0),
        ]
    )
    return EmpiricalFlowSizes(cdf, name="univ_dc")


def caida_backbone_flow_sizes() -> EmpiricalFlowSizes:
    """CAIDA wide-area backbone flow sizes [11].

    Backbone traffic is dominated by short flows (single-packet DNS/scan
    traffic) with a heavy tail of bulk transfers [71].
    """
    cdf = EmpiricalCDF(
        [
            (40, 0.10),
            (100, 0.35),
            (300, 0.55),
            (1_500, 0.75),
            (10_000, 0.88),
            (100_000, 0.96),
            (1_000_000, 0.99),
            (50_000_000, 1.0),
        ]
    )
    return EmpiricalFlowSizes(cdf, name="caida")


def hyperscalar_dc_flow_sizes() -> EmpiricalFlowSizes:
    """Hyperscalar DC flow sizes: the DCTCP web-search workload [32].

    The DCTCP paper's measured search workload: ~50 % of flows are short
    (<100 KB) queries, but 95 % of *bytes* come from 1–100 MB background
    flows.  CDF points (bytes) follow the published distribution.
    """
    cdf = EmpiricalCDF(
        [
            (6_000, 0.15),
            (10_000, 0.25),
            (20_000, 0.45),
            (50_000, 0.53),
            (100_000, 0.60),
            (300_000, 0.68),
            (1_000_000, 0.75),
            (3_000_000, 0.82),
            (10_000_000, 0.90),
            (30_000_000, 0.97),
            (100_000_000, 1.0),
        ]
    )
    return EmpiricalFlowSizes(cdf, name="hyperscalar_dc")


def zipf_flow_sizes() -> ZipfFlowSizes:
    """Zipf-skewed flow sizes for the multitenant placement suite.

    Rank r carries ~C/r^1.1 packets: a handful of elephants dominate while
    almost every other flow is a single-digit mouse — the regime where
    elephant/mice placement (``hybrid``, docs/MULTITENANT.md) should beat
    both pure SCR and pure RSS.  The packet budget scales with the flow
    count, so a 10^6-flow sweep point keeps the same elephant share as a
    10^3-flow one instead of starving the tail.
    """
    return ZipfFlowSizes(exponent=1.1, packets_per_flow=50)


#: The three evaluation workloads, by trace name used throughout benches,
#: plus the synthetic Zipf workload the multitenant suite sweeps.
TRACE_DISTRIBUTIONS = {
    "univ_dc": univ_dc_flow_sizes,
    "caida": caida_backbone_flow_sizes,
    "hyperscalar_dc": hyperscalar_dc_flow_sizes,
    "zipf": zipf_flow_sizes,
}

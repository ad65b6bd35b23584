"""The analytic throughput model: every predicted rate in the repo.

Appendix A: with ``k`` cores, dispatch ``d``, current-packet compute ``c1``
and per-history-item transition ``c2`` (all ns), each piggybacked packet
costs ``t + (k-1)·c2`` where ``t = d + c1``, and the system processes
external packets at ``k / (t + (k-1)·c2)`` per nanosecond.  When
``t ≫ (k-1)·c2`` this is ≈ ``k/t`` — linear in cores.  Figure 11 shows the
model matches the measured SCR throughput; ``benchmarks/bench_fig11_model.py``
regenerates that comparison against our simulator and
:func:`model_residuals` reports the per-k gap.

The other techniques' curves extend the same cost rows (``CostParams``,
``ContentionParams``) with plain workload numbers — the busiest core's
traffic share under RSS, the hottest key's share, the fraction of packets
touching global state.  :mod:`repro.analysis.advisor` decides which of
them applies to a program; the arithmetic lives only here.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..cpu.costmodel import (
    DEFAULT_CONTENTION,
    TABLE4_PARAMS,
    ContentionParams,
    CostParams,
)

__all__ = [
    "predicted_scr_pps",
    "predicted_scr_mpps",
    "predicted_relaxed_scr_mpps",
    "predicted_rss_mpps",
    "predicted_shared_mpps",
    "predicted_hybrid_mpps",
    "model_residuals",
    "linear_scaling_limit",
    "fit_cost_params",
]

_NS_TO_MPPS = 1e3  # 1 packet/ns == 1000 Mpps


def _replicated_pps(costs: CostParams, num_cores: int, history_items: int) -> float:
    """``num_cores`` replicas, each paying ``t + history_items·c2`` per packet."""
    if num_cores < 1:
        raise ValueError("need at least one core")
    per_packet_ns = costs.t + history_items * costs.c2
    return num_cores / per_packet_ns * 1e9


def predicted_scr_pps(costs: CostParams, num_cores: int) -> float:
    """Predicted SCR packets/second for ``num_cores`` (Appendix A)."""
    return _replicated_pps(costs, num_cores, num_cores - 1)


def predicted_scr_mpps(costs: CostParams, num_cores: int) -> float:
    return predicted_scr_pps(costs, num_cores) / 1e6


def predicted_relaxed_scr_mpps(costs: CostParams, num_cores: int) -> float:
    """Relaxed SCR over commutative state: the sequencer folds the history
    into one merged delta, so each packet pays at most one ``c2`` and the
    per-core cost stops growing with k."""
    return _replicated_pps(costs, num_cores, min(num_cores - 1, 1)) / 1e6


def predicted_rss_mpps(costs: CostParams, busiest_share: float) -> float:
    """Shared-nothing sharding: the busiest core, carrying ``busiest_share``
    of the traffic at ``d + c1`` per packet, gates the system (a perfect
    ``1/k`` split gives ``k / (d + c1)``; one elephant flow pins it at one
    core's rate)."""
    return _NS_TO_MPPS / (busiest_share * (costs.d + costs.c1))


def predicted_shared_mpps(
    costs: CostParams,
    num_cores: int,
    hot_key_share: float,
    *,
    locks: bool,
    global_fraction: float = 0.0,
    contention: ContentionParams = DEFAULT_CONTENTION,
) -> float:
    """One state map for all cores: the min of the per-core rate (every
    access bounces the entry line) and the hottest entry's serialization
    rate — and, when ``global_fraction`` of packets update one global
    entry under a lock, that entry's rate too.  ``locks`` picks per-entry
    spinlocks over hardware atomics."""
    k = num_cores
    if k == 1:
        if locks:
            service = costs.d + contention.lock_hold_ns(costs.c1, 1)
        else:
            service = costs.d + costs.c1 + contention.atomic_ns
        bounds = [_NS_TO_MPPS / service]
    elif locks:
        # Round-robin spray bounces the entry line on essentially every
        # hot-key access; the hold inflates with the spinning cores.
        hold = contention.lock_hold_ns(costs.c1, k)
        bounds = [k * _NS_TO_MPPS / (costs.d + hold)]
        if hot_key_share > 0:
            bounds.append(_NS_TO_MPPS / (hot_key_share * hold))
    else:
        # Atomics: the load misses (dirty elsewhere) and the RMW then owns
        # the line for a full cross-core transfer.
        stall = contention.line_transfer_ns + contention.atomic_hold_ns()
        bounds = [k * _NS_TO_MPPS / (costs.d + costs.c1 + stall)]
        if hot_key_share > 0:
            bounds.append(_NS_TO_MPPS / (
                hot_key_share * contention.atomic_hold_ns()
            ))
    if global_fraction > 0 and k > 1:
        hold_g = contention.lock_hold_ns(costs.c1 * 0.5, k)
        bounds.append(_NS_TO_MPPS / (global_fraction * hold_g))
    return min(bounds)


def predicted_hybrid_mpps(
    costs: CostParams,
    num_cores: int,
    elephant_share: float,
    busiest_share: float,
    contention: ContentionParams = DEFAULT_CONTENTION,
) -> float:
    """Elephant/mice placement: the elephants' share ``e`` (in [0, 1]) is
    sprayed SCR-style over all cores, the mice stay sharded, and every
    packet pays one sketch probe.  ``busiest_share`` is the busiest core's
    RSS share before the elephants are carved out.  Degenerates toward
    plain SCR at e→1 and toward RSS at e→0."""
    k, e = num_cores, elephant_share
    probe = contention.atomic_ns
    if e >= 1.0:
        mice_share = 0.0
    else:
        # Busiest mice core once the elephant traffic is carved out of the
        # RSS load; never better than a perfect 1/k split.
        mice_share = min(1.0, max(1.0 / k, (busiest_share - e) / (1.0 - e)))
    per_core = (
        e / k * (costs.t + (k - 1) * costs.c2 + probe)
        + (1.0 - e) * mice_share * (costs.t + probe)
    )
    return _NS_TO_MPPS / per_core


def model_residuals(
    program_name: str,
    measured: Sequence[Tuple[int, float]],
    costs: Optional[CostParams] = None,
) -> Dict[str, dict]:
    """Per-core-count residuals of measured Mpps vs the Appendix A model.

    Returns ``{str(cores): {measured_mpps, predicted_mpps, residual}}``
    where ``residual = (measured - predicted) / predicted`` — positive
    means the simulator beats the analytic prediction.  Keys are strings
    so the mapping round-trips through JSON unchanged.  ``costs`` defaults
    to the program's Table 4 row.
    """
    if costs is None:
        costs = TABLE4_PARAMS[program_name]
    out: Dict[str, dict] = {}
    for cores, measured_mpps in measured:
        predicted = predicted_scr_mpps(costs, cores)
        out[str(cores)] = {
            "measured_mpps": measured_mpps,
            "predicted_mpps": predicted,
            "residual": (measured_mpps - predicted) / predicted,
        }
    return out


def fit_cost_params(
    measurements: Sequence[Tuple[int, float]], dispatch_fraction: float = 0.75
) -> CostParams:
    """Recover (t, c2) from measured (cores, pps) points — Appendix A inverted.

    The model says per-packet time ``T(k) = k / pps(k) = t + (k-1)·c2``, a
    line in ``k-1``; ordinary least squares on the measured points yields
    intercept ``t`` and slope ``c2``.  This is how one would calibrate the
    simulator for a *new* program from two or more MLFFR measurements.

    ``dispatch_fraction`` apportions ``t`` between ``d`` and ``c1`` for
    callers that need the split (the model itself only uses t and c2).
    """
    if len(measurements) < 2:
        raise ValueError("need at least two (cores, pps) measurements")
    xs, ys = [], []
    for cores, pps in measurements:
        if cores < 1 or pps <= 0:
            raise ValueError(f"invalid measurement ({cores}, {pps})")
        xs.append(cores - 1)
        ys.append(cores / pps * 1e9)  # per-packet ns
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var_x = sum((x - mean_x) ** 2 for x in xs)
    if var_x == 0:
        raise ValueError("measurements must span more than one core count")
    c2 = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var_x
    t = mean_y - c2 * mean_x
    c2 = max(0.0, c2)
    t = max(1e-9, t)
    return CostParams(
        t=t, c2=c2, d=t * dispatch_fraction, c1=t * (1 - dispatch_fraction)
    )


def linear_scaling_limit(costs: CostParams, efficiency: float = 0.5) -> int:
    """The core count where SCR's per-core rate drops to ``efficiency`` of
    the single-core rate — i.e. where history compute has grown to rival
    ``t`` (Principle #3's taper point).

    Solves ``t / (t + (k-1)·c2) = efficiency`` for k.
    """
    if not 0 < efficiency < 1:
        raise ValueError("efficiency must be in (0, 1)")
    if costs.c2 <= 0:
        return 10**9  # a stateless program never tapers from history work
    k = 1 + costs.t * (1 - efficiency) / (efficiency * costs.c2)
    return max(1, int(k))

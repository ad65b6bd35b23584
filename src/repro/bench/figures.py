"""Figure presets: the paper's evaluation experiments as data.

Each preset names a figure, its workload, and the (program, trace,
techniques, cores) grid that regenerates it.  ``benchmarks/`` and the CLI's
``reproduce`` subcommand both consume these, so the experiment definitions
live in exactly one place.  A preset expands to a list of frozen
:class:`~repro.scenario.Scenario` specs (:func:`preset_scenarios`), which a
:class:`~repro.scenario.ScenarioExecutor` measures serially or over a
process pool with identical results.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..scenario.build import ScenarioResult
from ..scenario.executor import ScenarioExecutor
from ..scenario.spec import Scenario, scenario_grid

__all__ = [
    "CORES_7",
    "CORES_14",
    "SCR_IN_FRAME",
    "FigurePreset",
    "FIGURE_PRESETS",
    "preset_scenarios",
    "run_preset",
    "scaling_series",
]

#: Core counts swept in the figures.  The paper plots every count up to 7
#: (or 14); the presets default to a subset for runtime.  Set
#: ``SCR_FULL_SWEEP=1`` to sweep every core count like the paper does
#: (roughly triples the benchmark runtime).
if os.environ.get("SCR_FULL_SWEEP"):
    CORES_7: Tuple[int, ...] = tuple(range(1, 8))
    CORES_14: Tuple[int, ...] = tuple(range(1, 15))
else:
    CORES_7 = (1, 2, 4, 7)
    CORES_14 = (1, 2, 4, 7, 10, 14)

#: §4.2: the fixed packet sizes budget the history in-frame, so SCR's
#: prefix does not additionally inflate the wire.
SCR_IN_FRAME = {"count_wire_overhead": False}


@dataclass(frozen=True)
class FigurePreset:
    """One throughput-vs-cores panel from the paper."""

    figure: str
    program: str
    trace: str
    cores: Tuple[int, ...]
    techniques: Tuple[str, ...] = ("scr", "shared", "rss", "rss++")
    packet_size: Optional[int] = None
    scr_kwargs: Optional[dict] = None

    def describe(self) -> str:
        return f"Figure {self.figure}: {self.program} on {self.trace}"


FIGURE_PRESETS: Dict[str, FigurePreset] = {
    "1": FigurePreset("1", "conntrack", "single-flow", CORES_7,
                      scr_kwargs=SCR_IN_FRAME),
    "6a": FigurePreset("6a", "ddos", "caida", CORES_14, scr_kwargs=SCR_IN_FRAME),
    "6b": FigurePreset("6b", "heavy_hitter", "caida", CORES_7,
                       scr_kwargs=SCR_IN_FRAME),
    "6c": FigurePreset("6c", "port_knocking", "caida", CORES_14,
                       scr_kwargs=SCR_IN_FRAME),
    "6d": FigurePreset("6d", "token_bucket", "caida", CORES_7,
                       scr_kwargs=SCR_IN_FRAME),
    "6e": FigurePreset("6e", "ddos", "univ_dc", CORES_14, scr_kwargs=SCR_IN_FRAME),
    "6f": FigurePreset("6f", "heavy_hitter", "univ_dc", CORES_7,
                       scr_kwargs=SCR_IN_FRAME),
    "6g": FigurePreset("6g", "token_bucket", "univ_dc", CORES_7,
                       scr_kwargs=SCR_IN_FRAME),
    "6h": FigurePreset("6h", "port_knocking", "univ_dc", CORES_14,
                       scr_kwargs=SCR_IN_FRAME),
    "7": FigurePreset("7", "conntrack", "hyperscalar_dc", CORES_7,
                      scr_kwargs=SCR_IN_FRAME),
    # Swept past the paper's 14 cores to show the wire ceiling clearly;
    # the calibration puts the CPU/wire crossover at ~15 cores vs the
    # paper's ~11 (their sequencer header is leaner than our 22-byte one).
    "10a": FigurePreset("10a", "token_bucket", "univ_dc",
                        (1, 2, 4, 7, 10, 12, 14, 16, 18), packet_size=64),
}


def preset_scenarios(preset: FigurePreset, **workload: object) -> List[Scenario]:
    """The preset's (technique × cores) grid as frozen scenarios, in sweep
    order (techniques outer, cores inner).

    ``workload`` (num_flows, max_packets, seed, line_rate_gbps, ...) is
    forwarded to :meth:`Scenario.create`; omitted knobs take its defaults.
    """
    return scenario_grid(
        preset.program,
        preset.trace,
        preset.techniques,
        preset.cores,
        engine_kwargs_by_technique=(
            {"scr": preset.scr_kwargs} if preset.scr_kwargs else None
        ),
        packet_size=preset.packet_size,
        **workload,
    )


def scaling_series(
    results: Iterable[ScenarioResult],
) -> Dict[str, List[Tuple[int, float]]]:
    """Group measured points as technique → [(cores, Mpps), ...]."""
    series: Dict[str, List[Tuple[int, float]]] = {}
    for r in results:
        series.setdefault(r.scenario.technique, []).append(
            (r.scenario.cores, r.mlffr_mpps)
        )
    return series


def run_preset(
    preset: FigurePreset,
    executor: Optional[ScenarioExecutor] = None,
    **workload: object,
) -> Dict[str, List[Tuple[int, float]]]:
    """Measure a preset; returns technique → [(cores, Mpps), ...]."""
    executor = executor if executor is not None else ScenarioExecutor()
    return scaling_series(executor.run(preset_scenarios(preset, **workload)))

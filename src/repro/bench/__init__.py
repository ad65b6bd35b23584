"""Measurement: MLFFR search, analytic model, CSV export, reports.

Experiments run through :mod:`repro.scenario`.  This package's init
imports nothing from it (only :mod:`.figures` does, and it is not
re-exported), so the scenario layer imports the MLFFR search at module
top without a cycle.
"""

from .export import scaling_points_to_csv, series_to_csv, write_csv
from .mlffr import LOSS_THRESHOLD, SEARCH_TOLERANCE_PPS, MlffrResult, find_mlffr
from .model import (
    fit_cost_params,
    linear_scaling_limit,
    predicted_scr_mpps,
    predicted_scr_pps,
    predicted_series,
)
from .report import format_mpps, render_scaling_series, render_table

__all__ = [
    "LOSS_THRESHOLD",
    "SEARCH_TOLERANCE_PPS",
    "MlffrResult",
    "find_mlffr",
    "scaling_points_to_csv",
    "series_to_csv",
    "write_csv",
    "fit_cost_params",
    "linear_scaling_limit",
    "predicted_scr_mpps",
    "predicted_scr_pps",
    "predicted_series",
    "format_mpps",
    "render_scaling_series",
    "render_table",
]

"""Experiment harness: the figure table, scaling presets, repeat runners, reporting."""

from .config import (
    BENCH,
    DEFAULT,
    PAPER,
    SMOKE,
    ExperimentScale,
    scale_from_environment,
)
from .figures import ALL_FIGURES, Figure, FigureResult, standard_topologies
from .reporting import format_value, render_table
from .runner import (
    peak_values_for_count,
    repeat_simulations,
    repeat_traces,
    run_async_count,
    run_epoched_count,
    uniform_initial_values,
)

__all__ = [
    "ExperimentScale",
    "SMOKE",
    "BENCH",
    "DEFAULT",
    "PAPER",
    "scale_from_environment",
    "Figure",
    "FigureResult",
    "ALL_FIGURES",
    "standard_topologies",
    "render_table",
    "format_value",
    "run_epoched_count",
    "run_async_count",
    "uniform_initial_values",
    "peak_values_for_count",
    "repeat_traces",
    "repeat_simulations",
]

"""Experiment harness: the figure table, scaling presets, repeat runners, reporting."""

from .config import (
    ASYNC_SCENARIOS,
    BENCH,
    DEFAULT,
    PAPER,
    SMOKE,
    ExperimentScale,
    async_scenario_from_environment,
    scale_from_environment,
)
from .figures import ALL_FIGURES, Figure, FigureResult, standard_topologies
from .reporting import format_value, render_series, render_table
from .runner import (
    peak_values_for_count,
    repeat_simulations,
    repeat_traces,
    run_async_average,
    run_async_count,
    run_average_once,
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
    "ASYNC_SCENARIOS",
    "async_scenario_from_environment",
    "Figure",
    "FigureResult",
    "ALL_FIGURES",
    "standard_topologies",
    "render_table",
    "render_series",
    "format_value",
    "run_average_once",
    "run_epoched_count",
    "run_async_average",
    "run_async_count",
    "uniform_initial_values",
    "peak_values_for_count",
    "repeat_traces",
    "repeat_simulations",
]

"""Benchmark: reproduce Figure 2 (AVERAGE on the peak distribution)."""

import pytest

from repro.experiments.figures import ALL_FIGURES


@pytest.mark.benchmark(group="figure-2")
def test_figure2_average_peak(figure_runner):
    result = figure_runner(ALL_FIGURES["2"], cycles=30)
    first, last = result.rows[0], result.rows[-1]
    # Shape: the initial spread covers [0, N]; after 30 cycles both the
    # minimum and the maximum estimate are within a percent of the true
    # average of 1 — the exponential convergence the paper reports.
    assert first["min_estimate"] == 0.0
    assert first["max_estimate"] > 1.0
    assert last["min_estimate"] == pytest.approx(1.0, rel=0.05)
    assert last["max_estimate"] == pytest.approx(1.0, rel=0.05)

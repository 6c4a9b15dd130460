"""Benchmark: reproduce Figure 3(b) (variance reduction per cycle per topology)."""

import pytest

from repro.experiments.figures import ALL_FIGURES


@pytest.mark.benchmark(group="figure-3b")
def test_figure3b_variance_reduction(figure_runner):
    result = figure_runner(ALL_FIGURES["3b"], cycles=40)
    curves = {}
    for row in result.rows:
        curves.setdefault(row["topology"], []).append(row["normalized_variance"])

    # Shape 1: every curve starts at 1 and ends no higher than it started.
    for curve in curves.values():
        assert curve[0] == pytest.approx(1.0)
        assert curve[-1] <= curve[0]

    # Shape 2: random-like topologies achieve many orders of magnitude of
    # variance reduction within 40 cycles; the ordered lattice lags far behind.
    newscast_key = next(key for key in curves if "newscast" in key)
    assert curves["random"][-1] < 1e-8
    assert curves[newscast_key][-1] < 1e-6
    assert curves["W-S (beta=0.00)"][-1] > curves["random"][-1]

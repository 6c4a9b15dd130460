"""Benchmark: reproduce Figure 6(a) (COUNT under sudden death of 50% of nodes)."""

import pytest

from repro.experiments.figures import ALL_FIGURES


@pytest.mark.benchmark(group="figure-6a")
def test_figure6a_sudden_death(figure_runner, scale):
    result = figure_runner(
        ALL_FIGURES["6a"], points=[2, 6, 12, 18], cycles=30
    )
    truth = result.parameters["network_size"]
    by_cycle = {row["crash_cycle"]: row for row in result.rows}
    # Shape 1: a crash late in the epoch (after convergence) is harmless.
    assert by_cycle[18]["mean_estimated_size"] == pytest.approx(truth, rel=0.1)
    # Shape 2: the damage (deviation and spread) decreases as the crash
    # happens later, i.e. early crashes are the dangerous ones.
    def deviation(row):
        return abs(row["mean_estimated_size"] - truth)

    assert deviation(by_cycle[18]) <= deviation(by_cycle[2]) + 0.02 * truth
    spread_early = by_cycle[2]["max_estimated_size"] - by_cycle[2]["min_estimated_size"]
    spread_late = by_cycle[18]["max_estimated_size"] - by_cycle[18]["min_estimated_size"]
    assert spread_late <= spread_early + 0.02 * truth

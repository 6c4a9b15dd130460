"""Benchmark: reproduce Figure 8(a) (multi-instance COUNT under per-cycle crashes)."""

import pytest

from repro.experiments.figures import ALL_FIGURES


@pytest.mark.benchmark(group="figure-8a")
def test_figure8a_instances_under_churn(figure_runner, scale):
    result = figure_runner(ALL_FIGURES["8a"], points=[1, 5, 20, 50], cycles=30)
    size = result.parameters["network_size"]
    by_count = {row["instances"]: row for row in result.rows}

    def envelope(row):
        return row["worst_max_size"] - row["worst_min_size"]

    # Shape 1: adding instances tightens the min/max envelope of the
    # reported size (20 instances already give high accuracy in the paper);
    # a modest tolerance absorbs sampling noise at benchmark scale.
    size_tolerance = 0.05 * size
    assert envelope(by_count[20]) <= envelope(by_count[1]) * 1.1 + size_tolerance
    assert envelope(by_count[50]) <= envelope(by_count[1]) * 1.1 + size_tolerance
    # Shape 2: with 20+ instances the estimates bracket the true size tightly.
    assert by_count[20]["mean_min_size"] == pytest.approx(size, rel=0.35)
    assert by_count[20]["mean_max_size"] == pytest.approx(size, rel=0.35)

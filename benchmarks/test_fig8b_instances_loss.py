"""Benchmark: reproduce Figure 8(b) (multi-instance COUNT under 20% message loss)."""

import pytest

from repro.experiments.figures import ALL_FIGURES


@pytest.mark.benchmark(group="figure-8b")
def test_figure8b_instances_under_loss(figure_runner, scale):
    result = figure_runner(ALL_FIGURES["8b"], points=[1, 5, 20, 50], cycles=30)
    size = result.parameters["network_size"]
    by_count = {row["instances"]: row for row in result.rows}

    def worst_error(row):
        return max(abs(row["worst_max_size"] - size), abs(row["worst_min_size"] - size))

    # Shape 1: with 20 concurrent instances the worst node-level estimate
    # stays close to the true size despite 20% message loss.
    assert worst_error(by_count[20]) < 0.4 * size
    # Shape 2: many instances never do much worse than a single one, and
    # 50 instances perform at least as well as 5.
    assert worst_error(by_count[20]) <= worst_error(by_count[1]) * 1.25 + 0.05 * size
    assert worst_error(by_count[50]) <= worst_error(by_count[5]) * 1.25 + 0.05 * size

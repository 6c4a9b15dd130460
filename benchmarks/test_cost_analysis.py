"""Benchmark: reproduce the Section 4.5 cost analysis (exchanges per cycle)."""

import pytest

from repro.experiments.figures import ALL_FIGURES


@pytest.mark.benchmark(group="cost-analysis")
def test_cost_analysis_exchange_distribution(figure_runner):
    result = figure_runner(ALL_FIGURES["cost"], cycles=10)
    # Shape 1: on average a node takes part in two exchanges per cycle
    # (one it initiates plus a Poisson(1) number initiated by others).
    assert result.parameters["observed_mean"] == pytest.approx(2.0, abs=0.05)
    by_count = {row["exchanges_per_cycle"]: row for row in result.rows}
    # Shape 2: no node ever sits out a cycle (it always initiates once).
    assert by_count[0]["observed_fraction"] == 0.0
    # Shape 3: the observed distribution matches the 1 + Poisson(1) model.
    for count in (1, 2, 3, 4):
        assert by_count[count]["observed_fraction"] == pytest.approx(
            by_count[count]["predicted_fraction"], abs=0.05
        )

"""Benchmark: reproduce Figure 6(b) (COUNT under continuous churn)."""

import pytest

from repro.experiments.figures import ALL_FIGURES


@pytest.mark.benchmark(group="figure-6b")
def test_figure6b_churn(figure_runner, scale):
    size = scale.network_size
    rates = [0, max(1, size // 200), max(2, size // 100), max(4, size // 40)]
    result = figure_runner(ALL_FIGURES["6b"], points=rates, cycles=30)
    by_rate = {row["substitutions_per_cycle"]: row for row in result.rows}
    # Shape 1: without churn the size estimate is essentially exact.
    assert by_rate[rates[0]]["mean_estimated_size"] == pytest.approx(size, rel=0.03)
    # Shape 2: even at 2.5% substitution per cycle (75% of the network
    # replaced during the epoch) the mean estimate stays in a reasonable
    # range around the true size — the paper's headline robustness claim.
    worst = by_rate[rates[-1]]
    assert worst["mean_estimated_size"] == pytest.approx(size, rel=0.6)
    # Shape 3: churn increases the spread across repetitions.
    spread_none = by_rate[rates[0]]["max_estimated_size"] - by_rate[rates[0]]["min_estimated_size"]
    spread_heavy = worst["max_estimated_size"] - worst["min_estimated_size"]
    assert spread_heavy >= spread_none

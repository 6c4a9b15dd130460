"""Benchmark: reproduce Figure 4(a) (convergence factor vs Watts-Strogatz beta)."""

import pytest

from repro.experiments.figures import ALL_FIGURES


@pytest.mark.benchmark(group="figure-4a")
def test_figure4a_watts_strogatz_beta(figure_runner):
    result = figure_runner(
        ALL_FIGURES["4a"], points=[0.0, 0.25, 0.5, 0.75, 1.0], cycles=20
    )
    by_beta = {row["beta"]: row["convergence_factor"] for row in result.rows}
    # Shape: increased randomness (larger beta) gives a better (smaller)
    # convergence factor, with no sharp phase transition but a clear gap
    # between full order and full disorder.
    assert by_beta[1.0] < by_beta[0.5] <= by_beta[0.0] + 0.02
    assert by_beta[0.0] - by_beta[1.0] > 0.15

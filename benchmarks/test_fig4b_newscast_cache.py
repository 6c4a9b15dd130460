"""Benchmark: reproduce Figure 4(b) (convergence factor vs NEWSCAST cache size)."""

import pytest

from repro.analysis.theory import PUSH_PULL_CONVERGENCE_FACTOR
from repro.experiments.figures import ALL_FIGURES


@pytest.mark.benchmark(group="figure-4b")
def test_figure4b_newscast_cache_size(figure_runner):
    result = figure_runner(
        ALL_FIGURES["4b"], points=[2, 5, 10, 20, 30, 40], cycles=20
    )
    by_cache = {row["cache_size"]: row["convergence_factor"] for row in result.rows}
    # Shape 1: by c = 30 the convergence factor has reached the random-overlay
    # optimum (the paper's recommendation "c = 30 is already sufficient").
    assert by_cache[30] == pytest.approx(PUSH_PULL_CONVERGENCE_FACTOR, abs=0.06)
    # Shape 2: growing the cache further does not help materially.
    assert abs(by_cache[40] - by_cache[30]) < 0.04
    # Shape 3: very small caches are no better than large ones.
    assert by_cache[2] >= by_cache[30] - 0.02

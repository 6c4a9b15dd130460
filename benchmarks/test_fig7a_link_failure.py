"""Benchmark: reproduce Figure 7(a) (convergence factor vs link failure probability)."""

import pytest

from repro.experiments.figures import ALL_FIGURES


@pytest.mark.benchmark(group="figure-7a")
def test_figure7a_link_failures(figure_runner):
    result = figure_runner(
        ALL_FIGURES["7a"],
        points=[0.0, 0.2, 0.4, 0.6, 0.8],
        cycles=20,
    )
    rows = sorted(result.rows, key=lambda row: row["link_failure_probability"])
    factors = [row["convergence_factor"] for row in rows]
    bounds = [row["theoretical_upper_bound"] for row in rows]
    # Shape 1: link failures only slow convergence down — the factor grows
    # monotonically (allowing sampling noise) with P_d, and the heaviest
    # failure rate is clearly slower than the failure-free run.
    for earlier, later in zip(factors, factors[1:]):
        assert later >= earlier - 0.05
    assert factors[-1] > factors[0] + 0.1
    # Shape 2: the theoretical upper bound e^(Pd - 1) holds, and becomes
    # tighter for large P_d, as the paper observes.
    for factor, bound in zip(factors, bounds):
        assert factor <= bound + 0.08
    gap_small_pd = bounds[0] - factors[0]
    gap_large_pd = bounds[-1] - factors[-1]
    assert gap_large_pd <= gap_small_pd + 0.05

"""Benchmark: reproduce Figure 3(a) (convergence factor vs size per topology)."""

import pytest

from repro.analysis.theory import PUSH_PULL_CONVERGENCE_FACTOR
from repro.experiments.figures import ALL_FIGURES


@pytest.mark.benchmark(group="figure-3a")
def test_figure3a_convergence_vs_size(figure_runner):
    result = figure_runner(ALL_FIGURES["3a"], cycles=20)
    by_topology = {}
    for row in result.rows:
        by_topology.setdefault(row["topology"], []).append(row["convergence_factor"])

    random_factors = by_topology["random"]
    lattice_factors = by_topology["W-S (beta=0.00)"]
    # Shape 1: random overlays sit near 1/(2*sqrt(e)) regardless of size.
    for factor in random_factors:
        assert factor == pytest.approx(PUSH_PULL_CONVERGENCE_FACTOR, abs=0.07)
    # Shape 2: performance is essentially independent of the network size.
    assert max(random_factors) - min(random_factors) < 0.08
    # Shape 3: the ordered lattice is clearly the worst topology.
    assert min(lattice_factors) > max(random_factors) + 0.1
    # Shape 4: more rewiring (larger beta) never hurts.
    def mean(values):
        return sum(values) / len(values)

    assert mean(by_topology["W-S (beta=0.75)"]) <= mean(by_topology["W-S (beta=0.25)"]) + 0.02

"""Benchmark: reproduce Figure 7(b) (COUNT size estimates vs message loss)."""

import pytest

from repro.experiments.figures import ALL_FIGURES


@pytest.mark.benchmark(group="figure-7b")
def test_figure7b_message_loss(figure_runner, scale):
    result = figure_runner(
        ALL_FIGURES["7b"], points=[0.0, 0.1, 0.3, 0.5], cycles=30
    )
    size = result.parameters["network_size"]
    by_loss = {row["message_loss_fraction"]: row for row in result.rows}

    # Shape 1: with no losses every node reports (essentially) the true size.
    clean = by_loss[0.0]
    assert clean["mean_min_size"] == pytest.approx(size, rel=0.05)
    assert clean["mean_max_size"] == pytest.approx(size, rel=0.05)

    # Shape 2: a small loss rate still yields reasonable estimates.
    mild = by_loss[0.1]
    assert mild["mean_min_size"] == pytest.approx(size, rel=0.5)
    assert mild["mean_max_size"] == pytest.approx(size, rel=0.5)

    # Shape 3: heavy loss widens the min/max envelope dramatically compared
    # with the clean run (the paper sees orders of magnitude at 10^5 nodes).
    def spread(row):
        return row["worst_max_size"] - row["worst_min_size"]

    assert spread(by_loss[0.5]) > spread(clean) * 3

"""Benchmark: the practical protocol (adaptive multi-epoch COUNT).

Regenerates the composite size-monitoring scenario of Sections
4.1/4.3/5 — consecutive epochs with ``P_lead = C/N̂`` self-election,
epidemic epoch synchronisation under churn, trimmed-mean reduction and
estimate feedback — on a NEWSCAST overlay with message loss, at the
configured scale.
"""

import pytest

from repro.experiments.figures import ALL_FIGURES


@pytest.mark.benchmark(group="adaptive-epochs")
def test_adaptive_count_epochs(figure_runner, scale):
    size = scale.network_size
    epochs = 6
    result = figure_runner(ALL_FIGURES["adaptive"], points=range(epochs), cycles=20)
    assert len(result.rows) == epochs
    target = result.parameters["concurrent_target"]
    assert result.parameters["initial_estimate_factor"] == 0.25
    # Shape 1: the feedback loop corrects the deliberately wrong initial
    # estimate — every epoch's mean estimate is within 15% of the truth,
    # and no repetition went dry.
    for row in result.rows:
        assert row["mean_estimated_size"] == pytest.approx(size, rel=0.15)
        assert row["dry_runs"] == 0
    # Shape 2: the first election used N^ = size/4, so it elected about
    # 4C leaders; once the estimate is corrected the count settles near C.
    assert result.rows[0]["mean_leaders"] > 2 * target
    later = [row["mean_leaders"] for row in result.rows[2:]]
    assert sum(later) / len(later) < 2 * target
    # Shape 3: churned-in nodes are synchronised into every later epoch.
    churn = result.parameters["churn_per_cycle"]
    for row in result.rows[1:]:
        assert row["mean_joined"] == pytest.approx(churn * 20, rel=0.01)

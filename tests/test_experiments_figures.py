"""Smoke-scale tests of the per-figure experiment reproductions.

These run every figure function at a very small scale and check the
structural properties and qualitative shapes that must hold regardless of
network size (who wins, what is monotone, what stays near the truth).
"""

import math

import pytest

from repro.analysis.theory import PUSH_PULL_CONVERGENCE_FACTOR
from repro.experiments.config import ExperimentScale
from repro.experiments.figures import (
    ALL_FIGURES,
    cost_analysis,
    figure2_average_peak,
    figure3a_convergence_vs_size,
    figure3b_variance_reduction,
    figure4a_watts_strogatz_beta,
    figure4b_newscast_cache_size,
    figure5_crash_variance,
    figure6a_sudden_death,
    figure6b_churn,
    figure7a_link_failures,
    figure7b_message_loss,
    figure8a_instances_under_churn,
    figure8b_instances_under_loss,
    standard_topologies,
)
from repro.newscast import NewscastOverlay
from repro.simulator.cycle_sim import CycleSimulator
from repro.topology import TopologySpec

TINY = ExperimentScale(name="tiny", network_size=150, repeats=3, sweep_points=3, seed=7)


class TestRegistryAndHelpers:
    def test_all_figures_registry_complete(self):
        assert set(ALL_FIGURES) == {
            "2", "3a", "3b", "4a", "4b", "5", "6a", "6b", "7a", "7b", "8a", "8b",
            "adaptive", "adaptive-async", "byzantine", "cost", "partition",
        }

    def test_standard_topologies_families(self):
        labels = [spec.label() for spec in standard_topologies()]
        assert any("beta=0.00" in label for label in labels)
        assert any("newscast" in label for label in labels)
        assert "random" in labels
        assert "complete" in labels
        assert "scale-free" in labels

    def test_render_produces_text(self):
        result = figure2_average_peak(TINY, cycles=5)
        text = result.render()
        assert "Figure 2" in text
        assert "cycle" in text


class TestFigure2:
    def test_min_and_max_converge_towards_true_average(self):
        result = figure2_average_peak(TINY, cycles=25)
        first, last = result.rows[0], result.rows[-1]
        assert first["min_estimate"] == 0.0
        assert first["max_estimate"] == pytest.approx(TINY.network_size)
        assert last["min_estimate"] == pytest.approx(1.0, rel=0.05)
        assert last["max_estimate"] == pytest.approx(1.0, rel=0.05)

    def test_row_per_cycle(self):
        result = figure2_average_peak(TINY, cycles=10)
        assert len(result.rows) == 11
        assert result.column("cycle") == list(range(11))


class TestFigure3:
    def test_random_close_to_theory_and_lattice_much_worse(self):
        topologies = [
            TopologySpec("random", degree=10),
            TopologySpec("watts-strogatz", degree=10, beta=0.0),
        ]
        result = figure3a_convergence_vs_size(
            TINY, sizes=[150], cycles=15, topologies=topologies
        )
        by_topology = {row["topology"]: row["convergence_factor"] for row in result.rows}
        assert by_topology["random"] == pytest.approx(PUSH_PULL_CONVERGENCE_FACTOR, abs=0.06)
        assert by_topology["W-S (beta=0.00)"] > by_topology["random"] + 0.15

    def test_convergence_factor_roughly_size_independent(self):
        result = figure3a_convergence_vs_size(
            TINY,
            sizes=[80, 240],
            cycles=15,
            topologies=[TopologySpec("random", degree=10)],
        )
        factors = result.column("convergence_factor")
        assert abs(factors[0] - factors[1]) < 0.06

    def test_figure3b_curves_decrease(self):
        result = figure3b_variance_reduction(
            TINY, cycles=15, topologies=[TopologySpec("random", degree=10)]
        )
        values = [row["normalized_variance"] for row in result.rows]
        assert values[0] == 1.0
        assert values[-1] < 1e-6


class TestFigure4:
    def test_more_rewiring_improves_convergence(self):
        result = figure4a_watts_strogatz_beta(TINY, betas=[0.0, 1.0], cycles=15)
        by_beta = {row["beta"]: row["convergence_factor"] for row in result.rows}
        assert by_beta[1.0] < by_beta[0.0] - 0.1

    def test_larger_cache_not_worse(self):
        result = figure4b_newscast_cache_size(TINY, cache_sizes=[2, 30], cycles=15)
        by_cache = {row["cache_size"]: row["convergence_factor"] for row in result.rows}
        assert by_cache[30] <= by_cache[2] + 0.02
        assert by_cache[30] == pytest.approx(PUSH_PULL_CONVERGENCE_FACTOR, abs=0.08)


class TestFigure5:
    def test_measured_variance_grows_with_crash_probability(self):
        scale = TINY.with_overrides(network_size=400, repeats=12)
        result = figure5_crash_variance(scale, crash_probabilities=[0.0, 0.3], cycles=12)
        complete_rows = [row for row in result.rows if row["topology"] == "complete"]
        by_pf = {row["crash_probability"]: row for row in complete_rows}
        assert by_pf[0.0]["measured_normalized_variance"] == 0.0
        assert by_pf[0.3]["measured_normalized_variance"] > 0.0
        assert by_pf[0.3]["predicted_normalized_variance"] > 0.0

    def test_measured_within_order_of_magnitude_of_theory(self):
        scale = TINY.with_overrides(network_size=500, repeats=20)
        result = figure5_crash_variance(scale, crash_probabilities=[0.2], cycles=12)
        for row in result.rows:
            if row["crash_probability"] == 0.0:
                continue
            ratio = row["measured_normalized_variance"] / row["predicted_normalized_variance"]
            assert 0.1 < ratio < 10.0


class TestFigure6:
    def test_late_crashes_hurt_less_than_early_ones(self):
        result = figure6a_sudden_death(TINY, crash_cycles=[2, 18], cycles=25)
        by_cycle = {row["crash_cycle"]: row for row in result.rows}
        error_early = abs(by_cycle[2]["mean_estimated_size"] - TINY.network_size)
        error_late = abs(by_cycle[18]["mean_estimated_size"] - TINY.network_size)
        assert error_late <= error_early
        assert by_cycle[18]["mean_estimated_size"] == pytest.approx(TINY.network_size, rel=0.1)

    def test_churn_estimates_stay_in_reasonable_range(self):
        scale = TINY.with_overrides(network_size=200, repeats=3)
        rate = max(1, int(0.01 * scale.network_size))
        result = figure6b_churn(scale, substitution_rates=[0, rate], cycles=25)
        for row in result.rows:
            assert row["mean_estimated_size"] == pytest.approx(scale.network_size, rel=0.5)

    def test_no_churn_is_accurate(self):
        result = figure6b_churn(TINY, substitution_rates=[0], cycles=25)
        assert result.rows[0]["mean_estimated_size"] == pytest.approx(
            TINY.network_size, rel=0.02
        )


class TestFigure7:
    def test_link_failures_slow_convergence_and_respect_bound(self):
        result = figure7a_link_failures(TINY, link_failure_probabilities=[0.0, 0.6], cycles=15)
        by_pd = {row["link_failure_probability"]: row for row in result.rows}
        assert by_pd[0.6]["convergence_factor"] > by_pd[0.0]["convergence_factor"]
        # The bound must hold (with a small tolerance for noise).
        row = by_pd[0.6]
        assert row["convergence_factor"] <= row["theoretical_upper_bound"] + 0.1

    def test_message_loss_widens_the_estimate_spread(self):
        result = figure7b_message_loss(TINY, loss_fractions=[0.0, 0.4], cycles=25)
        by_loss = {row["message_loss_fraction"]: row for row in result.rows}
        spread_clean = by_loss[0.0]["mean_max_size"] - by_loss[0.0]["mean_min_size"]
        spread_lossy = by_loss[0.4]["worst_max_size"] - by_loss[0.4]["worst_min_size"]
        assert spread_lossy > spread_clean
        assert by_loss[0.0]["mean_min_size"] == pytest.approx(TINY.network_size, rel=0.05)


class TestFigure8:
    def test_more_instances_tighten_the_estimate_under_churn(self):
        scale = TINY.with_overrides(network_size=200, repeats=3)
        result = figure8a_instances_under_churn(
            scale, instance_counts=[1, 20], cycles=25, crash_fraction_per_cycle=0.01
        )
        by_count = {row["instances"]: row for row in result.rows}
        spread_one = by_count[1]["worst_max_size"] - by_count[1]["worst_min_size"]
        spread_many = by_count[20]["worst_max_size"] - by_count[20]["worst_min_size"]
        assert spread_many <= spread_one
        assert by_count[20]["mean_min_size"] == pytest.approx(scale.network_size, rel=0.35)

    def test_more_instances_help_under_message_loss(self):
        scale = TINY.with_overrides(network_size=200, repeats=3)
        result = figure8b_instances_under_loss(
            scale, instance_counts=[1, 20], cycles=25, message_loss=0.2
        )
        by_count = {row["instances"]: row for row in result.rows}
        error_one = max(
            abs(by_count[1]["worst_max_size"] - scale.network_size),
            abs(by_count[1]["worst_min_size"] - scale.network_size),
        )
        error_many = max(
            abs(by_count[20]["worst_max_size"] - scale.network_size),
            abs(by_count[20]["worst_min_size"] - scale.network_size),
        )
        assert error_many <= error_one * 1.05


class TestAsyncAdaptiveFigure:
    def test_feedback_corrects_wrong_estimate_asynchronously(self):
        from repro.experiments.figures import async_adaptive_count

        scale = TINY.with_overrides(network_size=200, repeats=2)
        result = async_adaptive_count(scale, epochs=3, cycles_per_epoch=20)
        assert result.figure_id == "adaptive-async"
        assert len(result.rows) == 3
        truth = scale.network_size
        # Epoch 0 elects far too many leaders (N̂ starts at a quarter of
        # the truth); later epochs settle near the concurrent target and
        # the estimates track the true size.
        assert result.rows[0]["mean_leaders"] > 2 * result.rows[-1]["mean_leaders"]
        for row in result.rows:
            assert row["mean_estimated_size"] == pytest.approx(truth, rel=0.15)
        assert "drift" in result.parameters["scenario"]


class TestCostAnalysis:
    def test_observed_distribution_matches_poisson_model(self):
        result = cost_analysis(TINY, cycles=8)
        assert result.parameters["observed_mean"] == pytest.approx(2.0, abs=0.05)
        for row in result.rows:
            if row["exchanges_per_cycle"] in (1, 2, 3):
                assert row["observed_fraction"] == pytest.approx(
                    row["predicted_fraction"], abs=0.08
                )

    def test_no_node_sits_out_a_cycle(self):
        result = cost_analysis(TINY, cycles=5)
        zero_row = [row for row in result.rows if row["exchanges_per_cycle"] == 0][0]
        assert zero_row["observed_fraction"] == 0.0


class TestFiguresStayOffTheOraclePaths:
    """Falling back to an oracle costs seconds, not correctness, so no other test notices."""

    @pytest.mark.parametrize("figure_id", sorted(ALL_FIGURES))
    def test_no_dict_newscast_and_no_reference_engine(self, figure_id, monkeypatch):
        def oracle_reached(*args, **kwargs):
            raise AssertionError(f"figure {figure_id} reached an oracle path")

        monkeypatch.setattr(NewscastOverlay, "bootstrap", oracle_reached)
        if figure_id != "cost":  # measures the reference engine's contact counts
            monkeypatch.setattr(CycleSimulator, "__init__", oracle_reached)
        scale = ExperimentScale(name="smoke", network_size=60, repeats=1, sweep_points=2)
        assert ALL_FIGURES[figure_id](scale).rows

"""Smoke-scale tests of the figure table.

These run every figure at a very small scale and check the structural
properties and qualitative shapes that must hold regardless of network
size (who wins, what is monotone, what stays near the truth), plus
golden digests of every figure's rows.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.analysis.theory import PUSH_PULL_CONVERGENCE_FACTOR
from repro.common.errors import ConfigurationError
from repro.experiments.config import ExperimentScale
from repro.experiments.figures import ALL_FIGURES, standard_topologies
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
        result = ALL_FIGURES["2"](TINY, cycles=5)
        text = result.render()
        assert "Figure 2" in text
        assert "cycle" in text

    @pytest.mark.parametrize("figure_id", ["2", "partition", "cost"])
    def test_figures_without_a_swept_axis_reject_points(self, figure_id):
        with pytest.raises(ConfigurationError, match="no swept axis"):
            ALL_FIGURES[figure_id](TINY, points=[1])

    def test_constants_are_reported_in_the_parameters(self):
        result = ALL_FIGURES["6a"](TINY, points=[18], cycles=20)
        assert result.parameters == {
            "network_size": TINY.network_size, "cycles": 20, "fraction": 0.5,
            "repeats": TINY.repeats,
        }
        assert result.column("crash_cycle") == [18]

    def test_every_figure_names_its_place_in_the_paper(self):
        for figure_id, figure in ALL_FIGURES.items():
            assert figure.figure_id == figure_id
            assert figure.paper and figure.title


class TestTinyNetworks:
    """Every figure must run where the paper's 20-neighbour views cannot fit."""

    @pytest.mark.parametrize("size", [5, 17, 21])
    @pytest.mark.parametrize("figure_id", sorted(ALL_FIGURES))
    def test_every_figure_runs(self, figure_id, size):
        scale = ExperimentScale(name="tiny", network_size=size, repeats=1, sweep_points=2)
        assert ALL_FIGURES[figure_id](scale).rows


def rows_digest(rows):
    """sha256 of the rows, floats at 10 significant digits (platform-stable)."""
    def cell(value):
        if isinstance(value, (float, np.floating)):
            return format(float(value), ".10g")
        return str(value)

    flat = [[column, cell(value)] for row in rows for column, value in row.items()]
    return hashlib.sha256(json.dumps(flat).encode()).hexdigest()


#: Rows of every figure at N=60, one repeat, two sweep points, seed 2004.
GOLDEN_ROWS = {
    "2": "2108b745167373b173ef096982fe5e8905f8b9272d860669432885377f14a9ce",
    "3a": "e799d02b2fca122d4650a75c293c6271c0b96cba0257c53689d725d8e5be63b7",
    "3b": "bc9be75370f4873c2f6628be1662299a36dd54fd22a09a49990784383296510e",
    "4a": "15228fef6e58c4985bd29e9a3fccb32ff6dce087268f6f96f624eec9378b1523",
    "4b": "85b6b22025090f0ae08d0547ffd0e419fb0b010ede630b23e20bf8aaeeaf5f0e",
    "5": "a92c05795672265efb074fd0fd1f478df61ac4a2740fa4feeb6629cc1412391a",
    "6a": "c23cffb5214d2dfba0cf033f647f32638be4ff10ffb4f86a315570be79fbdaac",
    "6b": "d87eb44681a26504ec5458f0d1c0cef27d60c7fc272a0c63ec915ba6dccae1e9",
    "7a": "12df0aba852e46914d760115e15b4f7dee72b9e5bed540c7af9a9c8529a65789",
    "7b": "04f82d433d4a888b061a73d1e6f90da450d64e75f62af015aec4c1138ced13f6",
    "8a": "d40ac30020916d55e655981906bd375512e1d5ed757edb4a1f1f7f3e1b3339e8",
    "8b": "0130d2550f6cf380736f8973a3b0c95c67fce94a4a262b6e32c160ac10f2d236",
    "adaptive": "9bf1e2dbfbf7f7f51482f90fb098ac51610d345d54db74d9690f1bbc12071b2a",
    "adaptive-async": "4b82a39745f915117a93935793165b7a2632c867af6cfd6144e170de2eeee7e5",
    "byzantine": "5feb1c853fe5995e8c74fc436c6e9bc72b5526567af83464f90307e3c459259f",
    "partition": "565503e9123f88628fedf248a38cf871fb34bc113c8e454b2e9510fabab9cb9d",
    "cost": "3571dcea258d082f95f28015b4cd7e5c6780b58b5efed225c76cb299d66bef36",
}


class TestGoldenRows:
    def test_every_figure_has_a_golden_digest(self):
        assert set(GOLDEN_ROWS) == set(ALL_FIGURES)

    @pytest.mark.parametrize("figure_id", sorted(GOLDEN_ROWS))
    def test_rows_match_the_golden_digest(self, figure_id):
        scale = ExperimentScale(
            name="golden", network_size=60, repeats=1, sweep_points=2, seed=2004
        )
        assert rows_digest(ALL_FIGURES[figure_id](scale).rows) == GOLDEN_ROWS[figure_id]


class TestFigure2:
    def test_min_and_max_converge_towards_true_average(self):
        result = ALL_FIGURES["2"](TINY, cycles=25)
        first, last = result.rows[0], result.rows[-1]
        assert first["min_estimate"] == 0.0
        assert first["max_estimate"] == pytest.approx(TINY.network_size)
        assert last["min_estimate"] == pytest.approx(1.0, rel=0.05)
        assert last["max_estimate"] == pytest.approx(1.0, rel=0.05)

    def test_row_per_cycle(self):
        result = ALL_FIGURES["2"](TINY, cycles=10)
        assert len(result.rows) == 11
        assert result.column("cycle") == list(range(11))


class TestFigure3:
    def test_random_close_to_theory_and_lattice_much_worse(self):
        topologies = [
            TopologySpec("random", degree=10),
            TopologySpec("watts-strogatz", degree=10, beta=0.0),
        ]
        result = ALL_FIGURES["3a"](
            TINY, points=[(150, spec) for spec in topologies], cycles=15
        )
        by_topology = {row["topology"]: row["convergence_factor"] for row in result.rows}
        assert by_topology["random"] == pytest.approx(PUSH_PULL_CONVERGENCE_FACTOR, abs=0.06)
        assert by_topology["W-S (beta=0.00)"] > by_topology["random"] + 0.15

    def test_convergence_factor_roughly_size_independent(self):
        random = TopologySpec("random", degree=10)
        result = ALL_FIGURES["3a"](TINY, points=[(80, random), (240, random)], cycles=15)
        factors = result.column("convergence_factor")
        assert abs(factors[0] - factors[1]) < 0.06

    def test_figure3b_curves_decrease(self):
        result = ALL_FIGURES["3b"](
            TINY, points=[TopologySpec("random", degree=10)], cycles=15
        )
        values = [row["normalized_variance"] for row in result.rows]
        assert values[0] == 1.0
        assert values[-1] < 1e-6


class TestFigure4:
    def test_more_rewiring_improves_convergence(self):
        result = ALL_FIGURES["4a"](TINY, points=[0.0, 1.0], cycles=15)
        by_beta = {row["beta"]: row["convergence_factor"] for row in result.rows}
        assert by_beta[1.0] < by_beta[0.0] - 0.1

    def test_larger_cache_not_worse(self):
        result = ALL_FIGURES["4b"](TINY, points=[2, 30], cycles=15)
        by_cache = {row["cache_size"]: row["convergence_factor"] for row in result.rows}
        assert by_cache[30] <= by_cache[2] + 0.02
        assert by_cache[30] == pytest.approx(PUSH_PULL_CONVERGENCE_FACTOR, abs=0.08)


class TestFigure5:
    def test_measured_variance_grows_with_crash_probability(self):
        scale = TINY.with_overrides(network_size=400, repeats=12)
        result = ALL_FIGURES["5"](scale, points=[0.0, 0.3], cycles=12)
        complete_rows = [row for row in result.rows if row["topology"] == "complete"]
        by_pf = {row["crash_probability"]: row for row in complete_rows}
        assert by_pf[0.0]["measured_normalized_variance"] == 0.0
        assert by_pf[0.3]["measured_normalized_variance"] > 0.0
        assert by_pf[0.3]["predicted_normalized_variance"] > 0.0

    def test_measured_within_order_of_magnitude_of_theory(self):
        scale = TINY.with_overrides(network_size=500, repeats=20)
        result = ALL_FIGURES["5"](scale, points=[0.2], cycles=12)
        for row in result.rows:
            if row["crash_probability"] == 0.0:
                continue
            ratio = row["measured_normalized_variance"] / row["predicted_normalized_variance"]
            assert 0.1 < ratio < 10.0


class TestFigure6:
    def test_late_crashes_hurt_less_than_early_ones(self):
        result = ALL_FIGURES["6a"](TINY, points=[2, 18], cycles=25)
        by_cycle = {row["crash_cycle"]: row for row in result.rows}
        error_early = abs(by_cycle[2]["mean_estimated_size"] - TINY.network_size)
        error_late = abs(by_cycle[18]["mean_estimated_size"] - TINY.network_size)
        assert error_late <= error_early
        assert by_cycle[18]["mean_estimated_size"] == pytest.approx(TINY.network_size, rel=0.1)

    def test_churn_estimates_stay_in_reasonable_range(self):
        scale = TINY.with_overrides(network_size=200, repeats=3)
        rate = max(1, int(0.01 * scale.network_size))
        result = ALL_FIGURES["6b"](scale, points=[0, rate], cycles=25)
        for row in result.rows:
            assert row["mean_estimated_size"] == pytest.approx(scale.network_size, rel=0.5)

    def test_no_churn_is_accurate(self):
        result = ALL_FIGURES["6b"](TINY, points=[0], cycles=25)
        assert result.rows[0]["mean_estimated_size"] == pytest.approx(
            TINY.network_size, rel=0.02
        )


class TestFigure7:
    def test_link_failures_slow_convergence_and_respect_bound(self):
        result = ALL_FIGURES["7a"](TINY, points=[0.0, 0.6], cycles=15)
        by_pd = {row["link_failure_probability"]: row for row in result.rows}
        assert by_pd[0.6]["convergence_factor"] > by_pd[0.0]["convergence_factor"]
        # The bound must hold (with a small tolerance for noise).
        row = by_pd[0.6]
        assert row["convergence_factor"] <= row["theoretical_upper_bound"] + 0.1

    def test_message_loss_widens_the_estimate_spread(self):
        result = ALL_FIGURES["7b"](TINY, points=[0.0, 0.4], cycles=25)
        by_loss = {row["message_loss_fraction"]: row for row in result.rows}
        spread_clean = by_loss[0.0]["mean_max_size"] - by_loss[0.0]["mean_min_size"]
        spread_lossy = by_loss[0.4]["worst_max_size"] - by_loss[0.4]["worst_min_size"]
        assert spread_lossy > spread_clean
        assert by_loss[0.0]["mean_min_size"] == pytest.approx(TINY.network_size, rel=0.05)


class TestFigure8:
    def test_more_instances_tighten_the_estimate_under_churn(self):
        scale = TINY.with_overrides(network_size=200, repeats=3)
        result = ALL_FIGURES["8a"](scale, points=[1, 20], cycles=25)
        by_count = {row["instances"]: row for row in result.rows}
        spread_one = by_count[1]["worst_max_size"] - by_count[1]["worst_min_size"]
        spread_many = by_count[20]["worst_max_size"] - by_count[20]["worst_min_size"]
        assert spread_many <= spread_one
        assert by_count[20]["mean_min_size"] == pytest.approx(scale.network_size, rel=0.35)

    def test_more_instances_help_under_message_loss(self):
        scale = TINY.with_overrides(network_size=200, repeats=3)
        result = ALL_FIGURES["8b"](scale, points=[1, 20], cycles=25)
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
        scale = TINY.with_overrides(network_size=200, repeats=2)
        result = ALL_FIGURES["adaptive-async"](scale, points=range(3), cycles=20)
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
        result = ALL_FIGURES["cost"](TINY, cycles=8)
        assert result.parameters["observed_mean"] == pytest.approx(2.0, abs=0.05)
        for row in result.rows:
            if row["exchanges_per_cycle"] in (1, 2, 3):
                assert row["observed_fraction"] == pytest.approx(
                    row["predicted_fraction"], abs=0.08
                )

    def test_no_node_sits_out_a_cycle(self):
        result = ALL_FIGURES["cost"](TINY, cycles=5)
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

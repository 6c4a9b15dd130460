"""Tests for the batched asynchronous engine and its cycle-model validation.

The acceptance claims of the asynchronous subsystem:

* deterministic, seeded execution;
* AVERAGE on the async engine statistically matches the cycle model's
  convergence factor across the {overlay} × {drift} × {loss} grid;
* the full practical protocol (NEWSCAST membership, epochs, adaptive
  COUNT) tracks the true network size within tolerance under drift,
  loss and churn;
* epoch identifiers advance at the Δ pace (regression for the epidemic
  epoch-escalation bug, where a jumping node's stale restart timer
  pushed it an extra epoch ahead).
"""

import math
import os
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.rng import RandomSource
from repro.core.count import LeaderElection
from repro.core.epoch import EpochConfig
from repro.core.functions import AverageFunction
from repro.simulator import make_simulator
from repro.simulator.async_engine import (
    AsyncAverageProtocol,
    AsyncCountProtocol,
    build_async_average,
    build_async_count,
)
from repro.simulator.asynchrony import HOSTILE, LAN, WAN, AsynchronyScenario
from repro.simulator.epochs import EpochDriver
from repro.simulator.transport import DelayModel, TransportModel
from repro.topology import TopologySpec, build_overlay

SIZE = 256


def overlay_factory(kind):
    if kind == "complete":
        spec = TopologySpec("complete")
    elif kind == "newscast":
        spec = TopologySpec("newscast", degree=15, params={"vectorized": True})
    else:
        spec = TopologySpec("random", degree=12)
    return lambda rng, size=SIZE: build_overlay(spec, size, rng)


def linear_values(size=SIZE):
    return {node: float(node % 101) for node in range(size)}


# ----------------------------------------------------------------------
# Cross-engine validation harness: an async AVERAGE run against the
# synchronous cycle model, the paper's own justification for analysing
# the protocol in the cycle abstraction.
# ----------------------------------------------------------------------
def validation_grid(
    drifts: Sequence[float] = (0.0, 0.01, 0.05),
    losses: Sequence[float] = (0.0, 0.05),
) -> List[AsynchronyScenario]:
    """The cross-engine validation grid: drift × loss over LAN latencies."""
    return [
        LAN.with_overrides(
            name=f"grid(d={drift:g},l={loss:g})", clock_drift=drift, message_loss=loss
        )
        for drift in drifts
        for loss in losses
    ]


@dataclass(frozen=True)
class EngineAgreement:
    """Convergence comparison between an async run and the cycle model."""

    async_factor: float
    cycle_factor: float

    def agree_within(self, tolerance: float) -> bool:
        """Whether the per-cycle convergence factors agree within ``tolerance``."""
        return abs(self.async_factor - self.cycle_factor) <= tolerance


def compare_average_convergence(
    overlay_factory,
    values: Dict[int, float],
    cycles: int,
    rng: RandomSource,
    scenario: AsynchronyScenario = LAN,
) -> EngineAgreement:
    """Run AVERAGE on both execution models and compare convergence.

    ``overlay_factory(child_rng)`` must build a fresh overlay per engine
    (the engines mutate overlay state).  The async engine bins its
    continuous timeline into cycle-equivalent windows of length δ, so
    both factors are the geometric-mean variance reduction over the same
    number of cycles.
    """
    simulator, _ = build_async_average(
        overlay_factory(rng.child("async", "overlay")), values, rng.child("async", "run"), scenario
    )
    simulator.run(cycles)
    cycle_simulator = make_simulator(
        overlay=overlay_factory(rng.child("cycle", "overlay")),
        function=AverageFunction(),
        initial_values=dict(values),
        rng=rng.child("cycle", "run"),
        transport=scenario.transport(),
    )
    cycle_simulator.run(cycles)
    return EngineAgreement(
        async_factor=simulator.trace.average_convergence_factor(cycles),
        cycle_factor=cycle_simulator.trace.average_convergence_factor(cycles),
    )


def build_average(seed=3, scenario=LAN, size=SIZE, kind="random", record_every=1):
    rng = RandomSource(seed)
    overlay = overlay_factory(kind)(rng.child("overlay"), size)
    return build_async_average(
        overlay,
        linear_values(size),
        rng.child("run"),
        scenario,
        record_every=record_every,
    )


class TestEngineBasics:
    def test_runs_on_the_dict_newscast_oracle(self):
        # Every overlay answers the batched peer draw, the dict oracle too.
        rng = RandomSource(1)
        dict_oracle = TopologySpec("newscast", degree=10, params={"vectorized": False})
        overlay = build_overlay(dict_oracle, 40, rng.child("o"))
        simulator, _ = build_async_average(overlay, linear_values(40), rng.child("run"))
        simulator.run(12)
        assert simulator.trace.final.variance < 1e-3 * simulator.trace.records[0].variance

    def test_deterministic_from_seed(self):
        results = []
        for _ in range(2):
            simulator, _ = build_average(
                seed=11, scenario=LAN.with_overrides(message_loss=0.05)
            )
            simulator.run(12)
            results.append(
                (simulator.trace.variances(), dict(simulator.statistics))
            )
        assert results[0] == results[1]

    def test_average_converges_to_truth(self):
        simulator, _ = build_average(seed=4)
        simulator.run(25)
        truth = np.mean(list(linear_values().values()))
        estimates = simulator.current_estimates()
        assert estimates.size == SIZE
        assert estimates.mean() == pytest.approx(truth, rel=1e-9)
        assert estimates.max() - estimates.min() < 1.0
        assert simulator.trace.final.variance < 1e-4 * simulator.trace.initial.variance

    def test_mean_is_preserved_without_loss(self):
        simulator, _ = build_average(seed=5)
        simulator.run(15)
        truth = np.mean(list(linear_values().values()))
        assert simulator.trace.final.mean == pytest.approx(truth, rel=1e-12)

    def test_clock_rates_bounded_by_drift(self):
        simulator, _ = build_average(seed=6, scenario=LAN.with_overrides(clock_drift=0.05))
        rates = [simulator.clock_rate(node) for node in range(SIZE)]
        assert all(0.95 <= rate <= 1.05 for rate in rates)
        assert max(rates) > 1.0 > min(rates)

    def test_run_until_advances_whole_windows(self):
        simulator, _ = build_average(seed=7)
        simulator.run_until(5.5)
        assert simulator.now == pytest.approx(6.0)
        assert simulator.window_index == 6

    def test_trace_counts_exchanges_per_window(self):
        simulator, _ = build_average(seed=8)
        simulator.run(10)
        per_window = [record.completed_exchanges for record in simulator.trace][1:]
        # Each node ticks about once per window; totals must be per-window
        # deltas, not cumulative counters.
        assert all(0 < count <= SIZE + 5 for count in per_window)
        assert sum(per_window) == simulator.statistics["completed"]


class TestUnknownIds:
    """Unknown node ids never wrap to the last row or raise raw errors."""

    SMALL = 10

    def small_run(self):
        simulator, protocol = build_average(seed=2, size=self.SMALL, kind="complete")
        simulator.run(2)
        return simulator, protocol

    def test_epoch_of_negative_id_is_unknown(self):
        simulator, _ = self.small_run()
        assert simulator.epoch_of(self.SMALL - 1) == 0
        assert simulator.epoch_of(-1) == -1

    def test_epoch_of_out_of_table_id_is_unknown(self):
        simulator, _ = self.small_run()
        assert simulator.epoch_of(10**6) == -1

    def test_clock_rate_of_unknown_id_raises(self):
        simulator, _ = self.small_run()
        for node in (-1, self.SMALL, 10**6):
            with pytest.raises(SimulationError):
                simulator.clock_rate(node)

    def test_value_of_negative_id_raises(self):
        _, protocol = self.small_run()
        with pytest.raises(ConfigurationError):
            protocol.value_of(-1)

    def test_set_value_negative_id_raises(self):
        _, protocol = self.small_run()
        with pytest.raises(ConfigurationError):
            protocol.set_value(-1, 999.0)
        assert protocol.value_of(self.SMALL - 1) == float((self.SMALL - 1) % 101)

    def test_constructor_rejects_negative_ids(self):
        with pytest.raises(ConfigurationError):
            AsyncAverageProtocol({0: 1.0, 1: 2.0, -1: 7.0})


class TestTimeoutsAndLatency:
    def test_heavy_tailed_latency_with_tight_timeout_loses_responses(self):
        tight = WAN.with_overrides(name="tight", timeout=0.2)
        simulator, _ = build_average(seed=9, scenario=tight)
        simulator.run(15)
        stats = simulator.statistics
        assert stats["response_lost"] > 0
        # Convergence still happens, just slower (the paper's claim).
        assert simulator.trace.final.variance < simulator.trace.initial.variance

    def test_generous_timeout_never_times_out_on_uniform_lan(self):
        simulator, _ = build_average(seed=10, scenario=LAN)
        simulator.run(10)
        assert simulator.statistics["response_lost"] == 0
        assert simulator.statistics["dropped"] == 0


class TestCrossEngineGrid:
    """Acceptance: async convergence statistically matches the cycle model
    across {complete, NEWSCAST} × {drift 0/1%/5%} × {loss 0/5%}."""

    TOLERANCE = 0.08

    @pytest.mark.parametrize("kind", ["complete", "newscast"])
    @pytest.mark.parametrize("drift", [0.0, 0.01, 0.05])
    @pytest.mark.parametrize("loss", [0.0, 0.05])
    def test_average_convergence_factor_matches(self, kind, drift, loss):
        scenario = LAN.with_overrides(
            name=f"{kind}-grid", clock_drift=drift, message_loss=loss
        )
        agreement = compare_average_convergence(
            overlay_factory(kind),
            linear_values(),
            cycles=20,
            rng=RandomSource(1234),
            scenario=scenario,
        )
        assert 0.15 < agreement.async_factor < 0.9
        assert agreement.agree_within(self.TOLERANCE), (
            f"{kind} drift={drift} loss={loss}: async={agreement.async_factor:.3f} "
            f"cycle={agreement.cycle_factor:.3f}"
        )


class TestAsyncCount:
    def run_count(self, seed=17, drift=0.01, loss=0.05, kind="random", epochs=3,
                  gamma=20, size=SIZE, churn=0):
        rng = RandomSource(seed)
        overlay = overlay_factory(kind)(rng.child("overlay"), size)
        scenario = LAN.with_overrides(
            name="count-grid",
            clock_drift=drift,
            message_loss=loss,
            churn_per_window=churn,
        )
        simulator, protocol = build_async_count(
            overlay,
            rng.child("run"),
            scenario,
            epoch_config=EpochConfig(cycles_per_epoch=gamma),
            concurrent_target=16.0,
        )
        simulator.run(epochs * gamma + 3)
        return simulator, protocol

    @pytest.mark.parametrize("drift", [0.0, 0.01, 0.05])
    @pytest.mark.parametrize("loss", [0.0, 0.05])
    def test_epoch_estimates_near_truth_across_grid(self, drift, loss):
        _, protocol = self.run_count(drift=drift, loss=loss)
        records = [record for record in protocol.epoch_records() if not record.dry]
        assert len(records) >= 3
        for record in records:
            assert record.mean_estimate == pytest.approx(SIZE, rel=0.15), (
                f"drift={drift} loss={loss} epoch={record.epoch_id}: "
                f"{record.mean_estimate}"
            )

    def test_async_estimates_match_cycle_model_epoch_driver(self):
        """Per-epoch estimates statistically match the cycle-model driver."""
        _, protocol = self.run_count(drift=0.01, loss=0.05, kind="complete")
        async_records = [r for r in protocol.epoch_records() if not r.dry]

        rng = RandomSource(99)
        overlay = overlay_factory("complete")(rng.child("overlay"), SIZE)
        driver = EpochDriver(
            overlay,
            LeaderElection(concurrent_target=16.0, estimated_size=float(SIZE)),
            EpochConfig(cycles_per_epoch=20),
            rng.child("driver"),
            transport=TransportModel(message_loss_probability=0.05),
        )
        cycle_result = driver.run(3)
        for async_record, cycle_record in zip(async_records, cycle_result.records):
            assert async_record.mean_estimate == pytest.approx(
                cycle_record.size_estimate, rel=0.15
            )

    def test_newscast_membership_supports_the_protocol(self):
        _, protocol = self.run_count(kind="newscast")
        records = [record for record in protocol.epoch_records() if not record.dry]
        assert records
        for record in records:
            assert record.mean_estimate == pytest.approx(SIZE, rel=0.2)

    def test_exchange_ledger_reconciles(self):
        """Every tick lands in exactly one outcome bucket — including the
        refused stale-epoch exchanges around epoch boundaries."""
        simulator, _ = self.run_count(drift=0.05, loss=0.05, epochs=3)
        stats = simulator.statistics
        assert stats["stale_refused"] > 0
        assert stats["ticks"] == (
            stats["no_peer"]
            + stats["dropped"]
            + stats["completed"]
            + stats["response_lost"]
            + stats["stale_refused"]
        )
        completed = sum(r.completed_exchanges for r in simulator.trace)
        failed = sum(r.failed_exchanges for r in simulator.trace)
        assert completed == stats["completed"]
        assert failed == stats["ticks"] - stats["completed"]

    def test_epoch_ids_advance_at_delta_pace(self):
        """Regression: epoch escalation under drift.

        A node synced forward used to keep its stale periodic restart
        schedule, restarting again almost immediately and pushing the
        whole network one extra epoch ahead per wave; identifiers ran
        far ahead of the Δ schedule.  With re-anchoring, 3γ windows can
        create at most ~4 epochs even at 5% drift.
        """
        simulator, protocol = self.run_count(drift=0.05, loss=0.0, epochs=3)
        newest = protocol.epoch_records()[-1].epoch_id
        assert newest <= 4
        assert simulator.statistics["skipped_epochs"] == 0

    def test_adaptive_feedback_corrects_wrong_initial_estimate(self):
        rng = RandomSource(23)
        overlay = overlay_factory("random")(rng.child("overlay"), SIZE)
        simulator, protocol = build_async_count(
            overlay,
            rng.child("run"),
            LAN.with_overrides(clock_drift=0.01),
            epoch_config=EpochConfig(cycles_per_epoch=20),
            concurrent_target=16.0,
            initial_estimate=SIZE / 8.0,
        )
        simulator.run(3 * 20 + 3)
        records = protocol.epoch_records()
        # Wrong N̂ inflates P_lead in epoch 0; the feedback pulls the
        # leader count back towards the concurrent target.
        assert records[0].leader_count > 2 * records[-2].leader_count
        final = records[-2].size_estimate
        assert final == pytest.approx(SIZE, rel=0.15)


class TestDryEpochs:
    def test_dry_epochs_carry_the_estimate_forward(self):
        """A zero-leader epoch is dry: infinite reports, estimate carried
        forward, and the next epoch with a leader recovers.  With one
        concurrent leader expected at N=200, seed 7 elects nobody in
        epochs 1 and 4 and at least one leader in every other epoch."""
        size, gamma = 200, 20
        rng = RandomSource(7)
        overlay = overlay_factory("random")(rng.child("overlay"), size)
        simulator, protocol = build_async_count(
            overlay,
            rng.child("run"),
            LAN.with_overrides(name="sparse", clock_drift=0.01, message_loss=0.05),
            epoch_config=EpochConfig(cycles_per_epoch=gamma),
            concurrent_target=1.0,
        )
        simulator.run(6 * gamma + 3)
        # The newest epoch has only just started: nobody reported yet.
        records = [record for record in protocol.epoch_records() if record.reporters]
        dry = [record for record in records if record.dry]
        assert dry and len(dry) < len(records)
        for record in dry:
            assert record.leader_count == 0
            assert math.isinf(record.mean_estimate)

        previous = float(size)  # the election's initial estimate
        for record in records:
            expected = previous if record.dry else record.mean_estimate
            assert record.size_estimate == expected
            previous = expected

        recovering = [
            later for earlier, later in zip(records, records[1:])
            if earlier.dry and not later.dry
        ]
        assert recovering
        for record in recovering:
            assert record.mean_estimate == pytest.approx(size, rel=0.15)


class TestChurn:
    def test_churn_keeps_estimates_reasonable(self):
        runner = TestAsyncCount()
        simulator, protocol = runner.run_count(seed=31, kind="newscast", churn=1, epochs=3)
        records = [record for record in protocol.epoch_records() if not record.dry]
        assert records
        for record in records:
            assert record.mean_estimate == pytest.approx(SIZE, rel=0.25)
        # Churn replaced crashed nodes, so the population is steady.
        assert simulator.alive_ids().size == pytest.approx(SIZE, abs=2)


class TestScenarioLayer:
    def test_validation_grid_shape(self):
        grid = validation_grid()
        assert len(grid) == 6
        assert {(s.clock_drift, s.message_loss) for s in grid} == {
            (0.0, 0.0), (0.0, 0.05), (0.01, 0.0),
            (0.01, 0.05), (0.05, 0.0), (0.05, 0.05),
        }

    def test_scenario_validation(self):
        with pytest.raises(ConfigurationError):
            AsynchronyScenario(clock_drift=1.5)
        with pytest.raises(ConfigurationError):
            AsynchronyScenario(message_loss=1.5)
        with pytest.raises(ConfigurationError):
            AsynchronyScenario(latency="pareto")
        with pytest.raises(ConfigurationError):
            AsynchronyScenario(churn_per_window=-1)

    @pytest.mark.parametrize(
        "fields",
        [
            {"min_delay": 0.5, "max_delay": 0.1},
            {"timeout": -1.0},
            {"latency": "lognormal", "min_delay": 0.0, "max_delay": 0.0},
            {"churn_per_window": 1.5},
        ],
        ids=["inverted-delays", "negative-timeout", "lognormal-no-median", "fractional-churn"],
    )
    def test_every_field_is_checked_at_construction(self, fields):
        with pytest.raises(ConfigurationError):
            AsynchronyScenario(**fields)

    def test_delay_model_scaling(self):
        model = WAN.delay_model(cycle_length=10.0)
        assert model.min_delay == pytest.approx(0.2)
        assert model.timeout == pytest.approx(6.0)
        assert model.distribution == "lognormal"

    def test_labels_mention_impairments(self):
        label = HOSTILE.label()
        assert "drift" in label and "loss" in label and "churn" in label


@pytest.mark.skipif(
    os.environ.get("REPRO_SCALE", "").lower() not in ("default", "paper"),
    reason="async-scale acceptance runs only at REPRO_SCALE=default/paper",
)
class TestAsyncScaleAcceptance:
    def test_practical_protocol_at_ten_thousand_nodes(self):
        """Acceptance: N=10^4, ≥5 epochs, 1% drift, 5% loss — every epoch
        estimate within 10% of the true size."""
        size = 10_000
        gamma = 30
        rng = RandomSource(2004)
        overlay = build_overlay(
            TopologySpec("newscast", degree=30, params={"vectorized": True}),
            size,
            rng.child("overlay"),
        )
        scenario = LAN.with_overrides(
            name="acceptance", clock_drift=0.01, message_loss=0.05
        )
        simulator, protocol = build_async_count(
            overlay,
            rng.child("run"),
            scenario,
            epoch_config=EpochConfig(cycles_per_epoch=gamma),
            concurrent_target=30.0,
            record_every=gamma,
        )
        simulator.run(5 * gamma + 5)
        records = [record for record in protocol.epoch_records() if not record.dry]
        assert len(records) >= 5
        for record in records:
            assert record.mean_estimate == pytest.approx(size, rel=0.10), (
                f"epoch {record.epoch_id}: {record.mean_estimate}"
            )

    def test_byzantine_degradation_at_ten_thousand_nodes(self):
        """Acceptance: COUNT error vs byzantine fraction 0-20% at N=10^4 on
        the replica-batched fast path — the hardened median-of-instances
        reducer is strictly more robust than a single instance, and stays
        accurate across the whole sweep."""
        from repro.experiments.config import ExperimentScale
        from repro.experiments.figures import ALL_FIGURES

        scale = ExperimentScale(
            name="byz-acceptance", network_size=10_000, repeats=3, sweep_points=5
        )
        figure = ALL_FIGURES["byzantine"](scale, cycles=30)
        fractions = figure.column("byzantine_fraction")
        assert fractions[0] == 0.0 and fractions[-1] == pytest.approx(0.2)
        for row in figure.rows:
            assert row["median_error"] < 0.05, row
            if row["byzantine_fraction"] > 0.0:
                assert row["median_error"] < row["single_instance_error"], row

    def test_partition_recovery_at_ten_thousand_nodes(self):
        """Acceptance: the overlay splits into two effective components
        during the outage and re-converges within bounded cycles after
        the heal."""
        from repro.experiments.config import ExperimentScale
        from repro.experiments.figures import ALL_FIGURES

        scale = ExperimentScale(
            name="partition-acceptance", network_size=10_000, repeats=1, sweep_points=3
        )
        figure = ALL_FIGURES["partition"](scale, cycles=28)
        start, heal = (
            int(cycle)
            for cycle in figure.parameters["partition_window"].strip("[)").split(",")
        )
        by_cycle = {row["cycle"]: row for row in figure.rows}
        middle = (start + heal) // 2
        assert by_cycle[middle]["partition_active"] and by_cycle[middle]["components"] >= 2
        assert not by_cycle[heal + 1]["partition_active"]
        assert by_cycle[28]["components"] == 1
        assert by_cycle[28]["side_gap"] < 0.05
        assert by_cycle[28]["variance"] < 1e-4 * by_cycle[1]["variance"]
"""Tests for the node failure and churn models."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import RandomSource
from repro.core.count import LeaderElection
from repro.core.epoch import EpochConfig
from repro.core.functions import AverageFunction
from repro.experiments.runner import RunPlan
from repro.simulator import EpochDriver, VectorizedCycleSimulator, build_async_average
from repro.simulator.asynchrony import AsynchronyScenario
from repro.simulator.cycle_sim import CycleSimulator
from repro.simulator.failures import (
    ChurnModel,
    CountCrashModel,
    NoFailures,
    ProportionalCrashModel,
    SuddenDeathModel,
)
from repro.simulator.replicated import ReplicaConfig, ReplicatedCycleSimulator
from repro.topology import TopologySpec, build_overlay

#: The overlay churn runs on: NEWSCAST is the one that takes joins.
NEWSCAST = TopologySpec("newscast", degree=6)


def make_simulator(size=60, seed=3, failure_model=None, spec=TopologySpec("random", degree=6)):
    rng = RandomSource(seed)
    overlay = build_overlay(spec, size, rng.child("topology"))
    return CycleSimulator(
        overlay=overlay,
        function=AverageFunction(),
        initial_values=[float(i) for i in range(size)],
        rng=rng.child("sim"),
        failure_model=failure_model,
    )


class TestNoFailures:
    def test_nothing_happens(self):
        simulator = make_simulator(failure_model=NoFailures())
        simulator.run(3)
        assert simulator.participant_ids().tolist() == list(range(60))
        assert len(simulator.overlay.node_ids()) == 60


class TestProportionalCrashModel:
    def test_removes_expected_fraction_each_cycle(self):
        simulator = make_simulator(size=100, failure_model=ProportionalCrashModel(0.1))
        simulator.run_cycle()
        assert len(simulator.participant_ids()) == 90
        simulator.run_cycle()
        assert len(simulator.participant_ids()) == 81

    def test_zero_probability_is_noop(self):
        simulator = make_simulator(failure_model=ProportionalCrashModel(0.0))
        simulator.run(2)
        assert len(simulator.participant_ids()) == 60

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            ProportionalCrashModel(1.2)


class TestSuddenDeathModel:
    def test_crash_happens_only_at_configured_cycle(self):
        simulator = make_simulator(size=100, failure_model=SuddenDeathModel(0.5, at_cycle=3))
        simulator.run(2)
        assert len(simulator.participant_ids()) == 100
        simulator.run_cycle()
        assert len(simulator.participant_ids()) == 50
        simulator.run_cycle()
        assert len(simulator.participant_ids()) == 50

    def test_at_cycle_zero_rejected(self):
        # Cycle indices are 1-based; at_cycle=0 used to be accepted and
        # then silently never fire.
        with pytest.raises(ConfigurationError, match="1-based"):
            SuddenDeathModel(0.5, at_cycle=0)

    def test_negative_at_cycle_rejected(self):
        with pytest.raises(ConfigurationError):
            SuddenDeathModel(0.5, at_cycle=-2)

    def test_at_cycle_one_fires_on_first_cycle(self):
        simulator = make_simulator(size=100, failure_model=SuddenDeathModel(0.5, at_cycle=1))
        simulator.run_cycle()
        assert len(simulator.participant_ids()) == 50


class TestChurnModel:
    def test_population_size_constant_but_composition_changes(self):
        simulator = make_simulator(size=80, failure_model=ChurnModel(5), spec=NEWSCAST)
        initial_participants = set(simulator.participant_ids())
        simulator.run(4)
        # 20 nodes crashed, 20 joined (not participating yet).
        assert len(simulator.participant_ids()) == 60
        assert len(initial_participants - set(simulator.participant_ids())) == 20
        assert len(simulator.overlay.node_ids()) == 80
        assert set(simulator.participant_ids()) < initial_participants

    def test_overlay_tracks_replacements(self):
        simulator = make_simulator(size=50, failure_model=ChurnModel(4), spec=NEWSCAST)
        simulator.run(3)
        assert simulator.overlay.size() == 50

    def test_zero_churn_is_noop(self):
        simulator = make_simulator(failure_model=ChurnModel(0))
        simulator.run(2)
        assert len(simulator.participant_ids()) == 60

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            ChurnModel(-1)


class TestCountCrashModel:
    def test_fixed_number_of_crashes_per_cycle(self):
        simulator = make_simulator(size=70, failure_model=CountCrashModel(7))
        simulator.run(3)
        assert len(simulator.participant_ids()) == 70 - 21

    def test_cannot_crash_more_than_population(self):
        simulator = make_simulator(size=10, failure_model=CountCrashModel(50))
        simulator.run_cycle()
        assert simulator.participant_ids().tolist() == []


#: Every door onto an engine whose churn would add nodes.
CHURNING_DOORS = {
    "reference": lambda overlay, rng: CycleSimulator(
        overlay, AverageFunction(), [0.0] * 10, rng, failure_model=ChurnModel(1)
    ),
    "vectorized": lambda overlay, rng: VectorizedCycleSimulator(
        overlay, AverageFunction(), [0.0] * 10, rng, failure_model=ChurnModel(1)
    ),
    "replicated": lambda overlay, rng: ReplicatedCycleSimulator(
        [ReplicaConfig(overlay, [0.0] * 10, rng, ChurnModel(1))], AverageFunction()
    ),
    "async": lambda overlay, rng: build_async_average(
        overlay, {node: 0.0 for node in range(10)}, rng,
        scenario=AsynchronyScenario(churn_per_window=1),
    ),
    # The driver builds its first epoch's engine when it runs.
    "epoch-driver": lambda overlay, rng: EpochDriver(
        overlay,
        LeaderElection(concurrent_target=2.0, estimated_size=10.0),
        EpochConfig(cycles_per_epoch=3),
        rng,
        failure_factory=ChurnModel(1),
    ).run(1),
}

FIXED_MEMBERSHIP = [TopologySpec("random", degree=3), TopologySpec("complete")]


class TestFailureSettingsCheckedAtConstruction:
    """A bad failure setting fails where it is given, not on the first run()."""

    @pytest.mark.parametrize("engine", [CycleSimulator, VectorizedCycleSimulator])
    @pytest.mark.parametrize("model", ["x", ChurnModel])
    def test_engines_refuse_a_non_model(self, engine, model):
        # "x" used to raise AttributeError from the first run().
        rng = RandomSource(1)
        overlay = build_overlay(TopologySpec("random", degree=3), 10, rng.child("t"))
        with pytest.raises(ConfigurationError, match="failure_model"):
            engine(
                overlay, AverageFunction(), [0.0] * 10, rng.child("s"),
                failure_model=model,
            )

    @pytest.mark.parametrize("factory", ["x", ChurnModel(1)])
    def test_run_plan_refuses_a_non_callable_factory(self, factory):
        # A shared model instance is refused too: each repetition needs its own.
        with pytest.raises(ConfigurationError, match="failure_factory"):
            RunPlan(
                TopologySpec("random", degree=3), 10, 2, [0.0] * 10,
                failure_factory=factory,
            )

    def epoch_driver(self, spec=TopologySpec("complete"), **settings):
        rng = RandomSource(1)
        return EpochDriver(
            build_overlay(spec, 10, rng.child("t")),
            LeaderElection(concurrent_target=2.0, estimated_size=10.0),
            EpochConfig(cycles_per_epoch=3),
            rng.child("d"),
            **settings,
        )

    @pytest.mark.parametrize("factory", ["crash", 3])
    def test_epoch_driver_refuses_a_bad_factory(self, factory):
        with pytest.raises(ConfigurationError, match="failure_factory"):
            self.epoch_driver(failure_factory=factory)

    @pytest.mark.parametrize("record_every", [0, 1.5, True])
    def test_epoch_driver_refuses_a_bad_record_every(self, record_every):
        with pytest.raises(ConfigurationError, match="record_every"):
            self.epoch_driver(record_every=record_every)

    def test_epoch_driver_accepts_a_model_or_a_callable(self):
        for factory in (None, ChurnModel(1), lambda epoch_id: ChurnModel(1)):
            self.epoch_driver(NEWSCAST, failure_factory=factory).run(1)

    @pytest.mark.parametrize("spec", FIXED_MEMBERSHIP, ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("door", sorted(CHURNING_DOORS))
    def test_churn_over_a_fixed_membership_overlay_is_refused_at_construction(
        self, door, spec
    ):
        # Static overlays take no joins, so churn fails where the engine
        # is built, not at the first join cycle.
        rng = RandomSource(1)
        overlay = build_overlay(spec, 10, rng.child("t"))
        with pytest.raises(ConfigurationError, match="fixed membership"):
            CHURNING_DOORS[door](overlay, rng.child("s"))
        assert overlay.size() == 10
        # Without churn, or with churn that adds nobody, the same builds run.
        CycleSimulator(overlay, AverageFunction(), [0.0] * 10, rng, failure_model=ChurnModel(0))

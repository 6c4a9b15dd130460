"""Counts of cycles, epochs, windows, nodes and repetitions are integers.

A float or a bool where a count belongs is refused with a
``ConfigurationError`` naming the parameter — it used to raise a raw
``TypeError`` from ``range()``, run one unit for ``True``, or silently
truncate ``2.5`` to ``2``.
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import RandomSource
from repro.core.count import LeaderElection
from repro.core.epoch import EpochConfig
from repro.core.functions import AverageFunction
from repro.experiments.runner import repeat_simulations
from repro.simulator import (
    ChurnModel,
    CountCrashModel,
    CycleSimulator,
    EpochDriver,
    SuddenDeathModel,
    VectorizedCycleSimulator,
    build_async_average,
)
from repro.topology import TopologySpec, build_overlay

SIZE = 20
NOT_COUNTS = [2.5, 2.0, True]


def overlay(seed=1):
    return build_overlay(TopologySpec("random", degree=4), SIZE, RandomSource(seed))


def cycle_engine(engine):
    return engine(
        overlay(), AverageFunction(), [float(node) for node in range(SIZE)], RandomSource(2)
    )


def epoch_driver():
    return EpochDriver(
        overlay(),
        LeaderElection(concurrent_target=3.0, estimated_size=float(SIZE)),
        EpochConfig(cycles_per_epoch=3),
        RandomSource(3),
    )


def async_engine():
    simulator, _ = build_async_average(
        overlay(), {node: float(node) for node in range(SIZE)}, RandomSource(4)
    )
    return simulator


RUNS = {
    "reference": (lambda: cycle_engine(CycleSimulator).run, "cycles"),
    "vectorized": (lambda: cycle_engine(VectorizedCycleSimulator).run, "cycles"),
    "epoch-driver": (lambda: epoch_driver().run, "epochs"),
    "async": (lambda: async_engine().run, "windows"),
    "repeats": (
        lambda: lambda count: repeat_simulations(count, 5, lambda index, rng: index),
        "repeats",
    ),
}


@pytest.mark.parametrize("count", NOT_COUNTS)
@pytest.mark.parametrize("door", sorted(RUNS))
def test_run_lengths_must_be_integers(door, count):
    make_run, name = RUNS[door]
    run = make_run()
    with pytest.raises(ConfigurationError, match=name):
        run(count)
    run(0)  # an empty run stays legal


@pytest.mark.parametrize("count", NOT_COUNTS)
def test_async_joins_must_be_whole_nodes(count):
    simulator = async_engine()
    with pytest.raises(ConfigurationError, match="count"):
        simulator.add_nodes(count, RandomSource(6))
    assert simulator.alive_ids().size == SIZE


@pytest.mark.parametrize("count", NOT_COUNTS)
@pytest.mark.parametrize(
    "build, name",
    [
        (ChurnModel, "replacements_per_cycle"),
        (CountCrashModel, "crashes_per_cycle"),
        (lambda count: SuddenDeathModel(0.5, at_cycle=count), "at_cycle"),
    ],
    ids=["churn", "count-crash", "sudden-death"],
)
def test_failure_model_counts_must_be_integers(build, name, count):
    with pytest.raises(ConfigurationError, match=name):
        build(count)

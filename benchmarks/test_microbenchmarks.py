"""Micro-benchmarks of the simulation substrates themselves.

Unlike the figure benchmarks (which time a whole experiment), these time
the building blocks — one aggregation cycle, one NEWSCAST maintenance
round, overlay construction — with proper pytest-benchmark statistics.
Wall-clock figures go into ``extra_info`` and are never asserted: a
stopwatch fails on a loaded machine, and ``benchmarks/e2e`` is the
performance gate.  What the tests assert is behaviour — the engine that
ran, parity with the reference engine, and the aggregate it computed.
"""

import time

import pytest

from repro.common.rng import RandomSource
from repro.core.count import LeaderElection
from repro.core.epoch import EpochConfig
from repro.core.functions import AverageFunction
from repro.newscast import NewscastOverlay, VectorizedNewscastOverlay
from repro.simulator import EpochDriver, VectorizedCycleSimulator, make_simulator
from repro.simulator.cycle_sim import CycleSimulator
from repro.topology import TopologySpec, build_overlay
from repro.topology.random_regular import random_k_out_topology
from repro.topology.watts_strogatz import watts_strogatz_topology


def build_cycle_simulator(size, engine, seed=1):
    """The canonical micro-cycle scenario: AVERAGE on a random 20-out overlay."""
    rng = RandomSource(seed)
    overlay = build_overlay(TopologySpec("random", degree=20), size, rng.child("t"))
    return engine(overlay, AverageFunction(), [float(i) for i in range(size)], rng.child("s"))


def best_cycle_time(simulator, cycles, repetitions=3):
    """Best-of-``repetitions`` mean wall-clock seconds per cycle."""
    simulator.run_cycle()  # warm caches and lazy structures
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        for _ in range(cycles):
            simulator.run_cycle()
        best = min(best, (time.perf_counter() - start) / cycles)
    return best


@pytest.mark.benchmark(group="micro-cycle")
def test_one_aggregation_cycle(benchmark, scale):
    size = scale.network_size
    simulator = build_cycle_simulator(size, CycleSimulator)
    benchmark(simulator.run_cycle)
    assert simulator.cycle_index >= 1


@pytest.mark.benchmark(group="micro-cycle")
def test_one_vectorized_cycle(benchmark, scale):
    size = scale.network_size
    simulator = build_cycle_simulator(size, VectorizedCycleSimulator)
    benchmark(simulator.run_cycle)
    assert simulator.cycle_index >= 1


@pytest.mark.benchmark(group="cycle-n10k")
def test_reference_cycle_n10k(benchmark, scale):
    simulator = build_cycle_simulator(10_000, CycleSimulator)
    benchmark.pedantic(simulator.run_cycle, rounds=5, iterations=1, warmup_rounds=1)
    assert simulator.cycle_index >= 6


@pytest.mark.benchmark(group="cycle-n10k")
def test_vectorized_cycle_n10k(benchmark, scale):
    simulator = build_cycle_simulator(10_000, VectorizedCycleSimulator)
    benchmark.pedantic(simulator.run_cycle, rounds=20, iterations=1, warmup_rounds=2)
    assert simulator.cycle_index >= 22


@pytest.mark.benchmark(group="cycle-n10k")
def test_vectorized_speedup_at_n10k(benchmark, scale):
    """Acceptance measurement: the fast path against the reference at N=10^4.

    The speed-up (~10x) is recorded in ``extra_info``, not asserted: a
    stopwatch ratio fails on a loaded machine.  Asserted instead is what
    the ratio stands for — the run is on the array engine, and that
    engine computes the reference engine's trace.
    """
    reference = build_cycle_simulator(10_000, CycleSimulator)
    vectorized = build_cycle_simulator(10_000, VectorizedCycleSimulator)

    def measure():
        return (
            best_cycle_time(reference, cycles=4),
            best_cycle_time(vectorized, cycles=30),
        )

    reference_time, vectorized_time = benchmark.pedantic(
        measure, rounds=1, iterations=1, warmup_rounds=0
    )
    speedup = reference_time / vectorized_time
    benchmark.extra_info["reference_ms_per_cycle"] = reference_time * 1e3
    benchmark.extra_info["vectorized_ms_per_cycle"] = vectorized_time * 1e3
    benchmark.extra_info["speedup"] = speedup
    print(
        f"\nN=10^4 cycle: reference {reference_time * 1e3:.2f} ms, "
        f"vectorized {vectorized_time * 1e3:.2f} ms, speedup {speedup:.1f}x"
    )
    assert isinstance(reference, CycleSimulator)
    assert isinstance(vectorized, VectorizedCycleSimulator)
    # Same seed, same schedule: the cycles both engines ran must agree.
    assert len(reference.trace) == 14 < len(vectorized.trace)  # initial + 13 cycles
    for expected, actual in zip(reference.trace.records, vectorized.trace.records):
        assert actual.cycle == expected.cycle
        assert actual.completed_exchanges == expected.completed_exchanges
        for field in ("mean", "variance", "minimum", "maximum"):
            assert getattr(actual, field) == pytest.approx(
                getattr(expected, field), rel=1e-9, abs=1e-12
            ), f"{field} diverged at cycle {expected.cycle}"


@pytest.mark.benchmark(group="cycle-n100k")
def test_vectorized_cycle_n100k(benchmark, scale):
    simulator = build_cycle_simulator(100_000, VectorizedCycleSimulator)
    benchmark.pedantic(simulator.run_cycle, rounds=5, iterations=1, warmup_rounds=1)
    assert simulator.cycle_index >= 6


@pytest.mark.benchmark(group="cycle-n100k")
def test_vectorized_n100k_30_cycles(benchmark, scale):
    """Acceptance measurement: a 30-cycle AVERAGE run at N=10^5.

    The wall clock (a few seconds) is recorded; asserted is that the array
    engine ran and converged: the variance collapses and, under perfect
    transport, the mean is conserved.
    """
    simulator = build_cycle_simulator(100_000, VectorizedCycleSimulator)

    def run_30_cycles():
        simulator.run(30)

    elapsed = benchmark.pedantic(
        lambda: _timed(run_30_cycles), rounds=1, iterations=1, warmup_rounds=0
    )
    benchmark.extra_info["seconds_for_30_cycles"] = elapsed
    print(f"\nN=10^5, 30 cycles: {elapsed:.2f} s")
    assert isinstance(simulator, VectorizedCycleSimulator)
    initial, final = simulator.trace.record_at(0), simulator.trace.final
    assert final.cycle == 30
    assert final.variance < 1e-6 * initial.variance
    assert final.mean == pytest.approx((100_000 - 1) / 2, rel=1e-9)


def _timed(callable_):
    start = time.perf_counter()
    callable_()
    return time.perf_counter() - start


class ReferenceEpochDriver(EpochDriver):
    """The epoch driver with every epoch on the reference engine."""

    _simulator = CycleSimulator


def build_epoch_driver(driver_class, size=10_000, gamma=20, concurrent_target=16.0, seed=5):
    """The canonical epoch-driver scenario: adaptive map-based COUNT."""
    rng = RandomSource(seed)
    overlay = build_overlay(TopologySpec("complete"), size, rng.child("t"))
    election = LeaderElection(
        concurrent_target=concurrent_target, estimated_size=float(size)
    )
    return driver_class(
        overlay,
        election,
        EpochConfig(cycles_per_epoch=gamma),
        rng.child("d"),
        record_every=gamma,
    )


@pytest.mark.benchmark(group="epochs-n10k")
def test_vectorized_epoch_n10k(benchmark, scale):
    driver = build_epoch_driver(EpochDriver)
    # Under --benchmark-disable pedantic runs the body exactly once, so
    # assert only on what a single epoch guarantees.
    benchmark.pedantic(lambda: driver.run(1), rounds=3, iterations=1, warmup_rounds=1)
    assert len(driver.result.records) >= 1
    assert driver.result.records[-1].size_estimate == pytest.approx(10_000, rel=0.15)


@pytest.mark.benchmark(group="epochs-n10k")
def test_epoch_driver_speedup_at_n10k(benchmark, scale):
    """Acceptance measurement: the fast-path epoch driver against the
    reference at N=10^4 (one full epoch: election, 20 COUNT cycles,
    trimmed reduction, feedback — dict merges vs the array kernel).

    The speed-up (>= 10x on an idle machine) is recorded in
    ``extra_info``, not asserted.  Asserted instead: each driver ran its
    named engine, the two produced identical per-epoch records, and the
    estimates are near the true size.
    """
    vectorized = build_epoch_driver(EpochDriver)
    reference = build_epoch_driver(ReferenceEpochDriver)

    def measure():
        # Each run() call executes one complete epoch; both drivers are
        # warmed with one epoch before being timed.
        vectorized.run(1)  # warm caches and lazy structures
        reference.run(1)
        vectorized_time = _timed(lambda: vectorized.run(1))
        reference_time = _timed(lambda: reference.run(1))
        return reference_time, vectorized_time

    reference_time, vectorized_time = benchmark.pedantic(
        measure, rounds=1, iterations=1, warmup_rounds=0
    )
    speedup = reference_time / vectorized_time
    benchmark.extra_info["reference_s_per_epoch"] = reference_time
    benchmark.extra_info["vectorized_s_per_epoch"] = vectorized_time
    benchmark.extra_info["speedup"] = speedup
    print(
        f"\nN=10^4 epoch: reference {reference_time:.2f} s, "
        f"vectorized {vectorized_time:.2f} s, speedup {speedup:.1f}x"
    )
    assert (vectorized._simulator, reference._simulator) == (
        VectorizedCycleSimulator, CycleSimulator
    )
    assert len(vectorized.result.records) == 2
    assert vectorized.result.records == reference.result.records
    for record in vectorized.result.records:
        assert not record.dry
        assert record.size_estimate == pytest.approx(10_000, rel=0.15)


@pytest.mark.benchmark(group="micro-newscast")
def test_one_newscast_round(benchmark, scale):
    size = scale.network_size
    rng = RandomSource(2)
    overlay = NewscastOverlay.bootstrap(size, cache_size=30, rng=rng.child("boot"))
    benchmark(overlay.after_cycle, rng.child("round"))
    assert overlay.last_cycle_exchanges > 0


@pytest.mark.benchmark(group="micro-newscast")
def test_one_vectorized_newscast_round(benchmark, scale):
    size = scale.network_size
    rng = RandomSource(2)
    overlay = VectorizedNewscastOverlay.bootstrap(size, cache_size=30, rng=rng.child("boot"))
    benchmark(overlay.after_cycle, rng.child("round"))
    assert overlay.last_cycle_exchanges > 0


@pytest.mark.benchmark(group="newscast-n100k")
def test_vectorized_newscast_round_n100k(benchmark, scale):
    rng = RandomSource(2)
    overlay = VectorizedNewscastOverlay.bootstrap(100_000, cache_size=30, rng=rng.child("boot"))
    benchmark.pedantic(
        overlay.after_cycle,
        args=(rng.child("round"),),
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )
    assert overlay.last_cycle_exchanges > 90_000


@pytest.mark.benchmark(group="newscast-n100k")
def test_newscast_fast_path_30_cycles_at_n100k(benchmark, scale):
    """Acceptance measurement: 30 AVERAGE cycles over array-native NEWSCAST
    at N=10^5, auto-dispatched onto the fast path.

    The whole run is 30 aggregation cycles *plus* 30 full NEWSCAST
    maintenance rounds (10^5 cache merges each); its wall clock (a few
    seconds on one core, the maintenance round is memory-bandwidth bound)
    is recorded in ``extra_info``.  The dict-based overlay needs minutes
    for the same workload.  Asserted: the array engine ran over the array
    overlay, and the run converged to the conserved mean.
    """
    size = 100_000
    rng = RandomSource(6)
    overlay = build_overlay(
        TopologySpec("newscast", degree=30, params={"vectorized": True}),
        size,
        rng.child("topology"),
    )
    simulator = make_simulator(
        overlay,
        AverageFunction(),
        [float(i % 1000) for i in range(size)],
        rng.child("simulation"),
        record_every=5,
    )
    assert isinstance(simulator, VectorizedCycleSimulator)

    elapsed = benchmark.pedantic(
        lambda: _timed(lambda: simulator.run(30)), rounds=1, iterations=1, warmup_rounds=0
    )
    benchmark.extra_info["seconds_for_30_cycles"] = elapsed
    final = simulator.trace.final
    benchmark.extra_info["final_variance"] = final.variance
    print(f"\nNEWSCAST fast path, N=10^5, 30 cycles: {elapsed:.2f} s")
    assert isinstance(overlay, VectorizedNewscastOverlay)
    # The run must actually aggregate: variance collapses by ~17 orders
    # of magnitude over 30 cycles on a healthy overlay, and perfect
    # transport conserves the mean.
    assert final.variance < 1e-6 * simulator.trace.record_at(0).variance
    assert final.mean == pytest.approx(simulator.trace.record_at(0).mean, rel=1e-9)


@pytest.mark.benchmark(group="micro-topology")
def test_build_random_overlay(benchmark, scale):
    size = scale.network_size
    rng = RandomSource(3)
    topology = benchmark(random_k_out_topology, size, 20, rng)
    assert topology.size() == size


@pytest.mark.benchmark(group="micro-topology")
def test_build_watts_strogatz_overlay(benchmark, scale):
    size = scale.network_size
    rng = RandomSource(4)
    topology = benchmark(watts_strogatz_topology, size, 20, 0.25, rng)
    assert topology.size() == size

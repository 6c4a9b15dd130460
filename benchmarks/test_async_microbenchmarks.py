"""Micro-benchmarks of the asynchronous engine at N=10^4.

One δ-window of AVERAGE (its exchange throughput goes into
``extra_info``) and one full practical-protocol COUNT epoch (its wall
clock goes into ``extra_info``), both under 1% clock drift and 5% message
loss.  Times are recorded, never asserted.
"""

import time

import pytest

from repro.common.rng import RandomSource
from repro.core.epoch import EpochConfig
from repro.simulator.async_engine import build_async_average, build_async_count
from repro.simulator.asynchrony import LAN
from repro.topology import TopologySpec, build_overlay

#: The asynchrony impairments shared by both benchmarks.
SCENARIO = LAN.with_overrides(name="bench", clock_drift=0.01, message_loss=0.05)


def build_batched_simulator(size, seed=5):
    rng = RandomSource(seed)
    overlay = build_overlay(TopologySpec("random", degree=20), size, rng.child("t"))
    simulator, _ = build_async_average(
        overlay,
        {index: float(index) for index in range(size)},
        rng.child("run"),
        SCENARIO,
    )
    return simulator


@pytest.mark.benchmark(group="async-n10k")
def test_async_window_n10k(benchmark, scale):
    """One δ-window of the batched engine at N=10^4."""
    simulator = build_batched_simulator(10_000)
    elapsed = []

    def one_window():
        start = time.perf_counter()
        simulator.run(1)
        elapsed.append(time.perf_counter() - start)

    benchmark.pedantic(one_window, rounds=5, iterations=1, warmup_rounds=1)
    ticks_per_window = simulator.statistics["ticks"] / simulator.window_index
    exchanges_per_second = ticks_per_window / min(elapsed)
    benchmark.extra_info["exchanges_per_second"] = exchanges_per_second
    print(f"\nN=10^4 async exchanges/s: {exchanges_per_second:,.0f}")
    assert simulator.window_index >= 6
    assert simulator.statistics["completed"] > 0


@pytest.mark.benchmark(group="async-n10k")
def test_async_practical_protocol_epoch_n10k(benchmark, scale):
    """A full practical-protocol epoch (election, γ=20 COUNT windows under
    drift + loss, trimmed reduction, feedback) at N=10^4, with the epoch
    estimate near the truth."""
    size = 10_000
    gamma = 20
    rng = RandomSource(7)
    overlay = build_overlay(TopologySpec("random", degree=20), size, rng.child("t"))
    simulator, protocol = build_async_count(
        overlay,
        rng.child("run"),
        SCENARIO,
        epoch_config=EpochConfig(cycles_per_epoch=gamma),
        concurrent_target=30.0,
        record_every=gamma,
    )

    def one_epoch():
        start = time.perf_counter()
        simulator.run(gamma)
        return time.perf_counter() - start

    elapsed = benchmark.pedantic(one_epoch, rounds=1, iterations=1, warmup_rounds=0)
    simulator.run(3)  # cross the boundary so the first epoch reports
    benchmark.extra_info["seconds_per_epoch"] = elapsed
    records = [record for record in protocol.epoch_records() if not record.dry]
    assert records
    assert records[0].mean_estimate == pytest.approx(size, rel=0.1)
    print(f"\nN=10^4 practical-protocol epoch: {elapsed:.2f} s")
    assert simulator.statistics["completed"] > 0
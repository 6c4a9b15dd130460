#!/usr/bin/env python
"""Quickstart: compute global aggregates with one call.

Every node in a simulated 1000-node overlay holds a local value (here: a
synthetic "load" figure).  The `aggregate` convenience function builds the
overlay, runs one epoch of the push–pull protocol from the paper, and
returns the value every node would report, together with the exact answer
for comparison.

The script runs every aggregate of the table and exits non-zero if one
whose exact value is finite misses it by a relative error above
MAX_RELATIVE_ERROR.  At seed 42 every such error is at most ~1e-12;
PRODUCT's exact value overflows to inf at these loads, so it is skipped.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import math
import sys

from repro import (
    AverageFunction,
    RandomSource,
    TopologySpec,
    aggregate,
    build_overlay,
    make_simulator,
)
from repro.core.protocol import AGGREGATES

MAX_RELATIVE_ERROR = 1e-6


def main() -> int:
    rng = RandomSource(2004)
    # Synthetic per-node load: most nodes lightly loaded, a few hotspots.
    loads = [rng.uniform(0.0, 1.0) ** 3 * 100.0 for _ in range(1000)]

    print("Computing global aggregates over a 1000-node overlay network\n")

    missed = []
    for name in AGGREGATES:
        result = aggregate(loads, aggregate=name, cycles=30, seed=42)
        print(
            f"{name:>14}:  estimate = {result.mean_estimate:14.4f}   "
            f"exact = {result.exact_value:14.4f}   "
            f"relative error = {result.relative_error:.2e}"
        )
        if math.isfinite(result.exact_value) and not result.relative_error <= MAX_RELATIVE_ERROR:
            missed.append(name)

    # The same call works over any overlay; here the dynamic NEWSCAST
    # membership protocol maintains the topology while gossip runs.
    result = aggregate(
        loads,
        aggregate="average",
        topology=TopologySpec("newscast", degree=30),
        cycles=30,
        seed=43,
    )
    print(
        f"\nAVERAGE over a NEWSCAST overlay (c=30): {result.mean_estimate:.4f} "
        f"(error {result.relative_error:.2e})"
    )

    # Convergence is exponential: the trace records the variance decay.
    reductions = result.trace.variance_reduction()
    print("\nVariance reduction by cycle (every 5th cycle):")
    for cycle in range(0, len(reductions), 5):
        print(f"  cycle {cycle:>2}: {reductions[cycle]:.3e}")

    # For paper-scale networks, build the simulator explicitly through
    # make_simulator, the array engine (VectorizedCycleSimulator).  The
    # per-exchange reference loop, CycleSimulator, takes the same
    # arguments and produces the exact same results from the same seed.
    size = 50_000
    rng = RandomSource(2004)
    overlay = build_overlay(TopologySpec("random", degree=20), size, rng.child("topology"))
    simulator = make_simulator(
        overlay,
        AverageFunction(),
        [rng.uniform(0.0, 100.0) for _ in range(size)],
        rng.child("simulation"),
        record_every=5,  # skip the O(N) metrics pass on 4 of 5 cycles
    )
    simulator.run(30)
    final = simulator.trace.final
    print(
        f"\n{type(simulator).__name__} over {size} nodes: "
        f"mean estimate {final.mean:.4f} after {final.cycle} cycles "
        f"(variance {final.variance:.3e})"
    )

    # The fast path is not limited to static overlays: a "newscast" spec
    # builds the array-native NEWSCAST implementation, which keeps even
    # dynamic-membership runs on the vectorized engine, at the paper's
    # 10^5-node scale.  Every cycle below runs one push-pull aggregation
    # round AND one full NEWSCAST cache-exchange round for all nodes.
    size = 100_000
    rng = RandomSource(2004)
    overlay = build_overlay(TopologySpec("newscast", degree=30), size, rng.child("topology"))
    simulator = make_simulator(
        overlay,
        AverageFunction(),
        [rng.uniform(0.0, 100.0) for _ in range(size)],
        rng.child("simulation"),
        record_every=5,
    )
    simulator.run(30)
    final = simulator.trace.final
    print(
        f"{type(simulator).__name__} over NEWSCAST (c=30, N={size}): "
        f"mean estimate {final.mean:.4f} after {final.cycle} cycles "
        f"(variance {final.variance:.3e})"
    )

    # The cycle model is an approximation: the real protocol runs on an
    # asynchronous network with message delays, exchange timeouts and
    # drifting clocks.  The asynchronous engine simulates exactly that —
    # here with 1% clock drift, 5% message loss and heavy-tailed WAN
    # latencies where slow round trips genuinely hit the timeout — and
    # still converges at the cycle model's rate.
    from repro.simulator import build_async_average
    from repro.simulator.asynchrony import WAN

    size = 10_000
    scenario = WAN.with_overrides(clock_drift=0.01, message_loss=0.05)
    rng = RandomSource(2004)
    overlay = build_overlay(TopologySpec("random", degree=20), size, rng.child("topology"))
    async_simulator, _ = build_async_average(
        overlay,
        {node: rng.uniform(0.0, 100.0) for node in range(size)},
        rng.child("simulation"),
        scenario,
        record_every=5,
    )
    async_simulator.run(30)
    final = async_simulator.trace.final
    stats = async_simulator.statistics
    print(
        f"AsyncPracticalSimulator ({scenario.label()}, N={size}): "
        f"mean estimate {final.mean:.4f} after {final.cycle} cycle-equivalents "
        f"(variance {final.variance:.3e}; "
        f"{stats['dropped'] + stats['response_lost']} exchanges lost to "
        f"loss/timeouts)"
    )

    if missed:
        print(f"\nrelative error above {MAX_RELATIVE_ERROR:.0e}: {', '.join(missed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

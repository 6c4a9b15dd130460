#!/usr/bin/env python
"""Network-size monitoring (COUNT) in a churning peer-to-peer system.

A constant-size but continuously churning network (nodes crash and are
replaced every cycle) runs the COUNT protocol on top of a NEWSCAST
overlay.  Two experiments are shown:

1. One epoch, exactly as Section 7.3 of the paper suggests: a single
   COUNT instance (one leader, one peak value) versus 20 concurrent
   instances whose outputs every node combines with the trimmed mean.
   The multi-instance variant reports far tighter size estimates under
   the same failure load.
2. The full *practical protocol* (Sections 4.1/4.3/5): consecutive
   epochs with multi-leader self-election at ``P_lead = C/N̂``, epidemic
   epoch synchronisation of churned-in nodes, trimmed-mean reduction at
   every epoch end, and the estimate fed back into the next election.
   The run starts from a deliberately wrong size estimate and corrects
   itself within the first epochs — all on the vectorised fast path.

The script exits non-zero unless the last epoch's size estimate is within
10 % of the true size.  Both parts run seed 11.  With ~10 leaders under
this churn and loss the gate holds for most seeds, not all: over seeds
0-199 the last epoch missed 10 % on 8 of them (median error 2.5 %).

Run with:  PYTHONPATH=src python examples/network_size_monitoring.py
"""

from __future__ import annotations

import sys

import numpy as np

from repro import RandomSource, make_simulator
from repro.core.epoch import EpochConfig
from repro.core.instances import MultiInstanceCount, trimmed_size_estimates
from repro.experiments.runner import run_epoched_count
from repro.simulator.failures import ChurnModel
from repro.simulator.transport import TransportModel
from repro.topology import TopologySpec, build_overlay

NETWORK_SIZE = 800
CYCLES = 30
CHURN_PER_CYCLE = 8          # 1% of the network substituted per cycle
MESSAGE_LOSS = 0.05          # 5% of messages lost on top of the churn
FINAL_TOLERANCE = 0.10       # last epoch estimate must be this close to N


def run_count(instances: int, seed: int) -> dict:
    """Run one epoch of COUNT with the given number of concurrent instances."""
    rng = RandomSource(seed)
    overlay = build_overlay(TopologySpec("newscast", degree=30), NETWORK_SIZE, rng.child("t"))
    bundle = MultiInstanceCount.create(overlay.node_ids(), instances, rng.child("instances"))
    simulator = make_simulator(
        overlay=overlay,
        function=bundle.function,
        initial_values=bundle.initial_values,
        rng=rng.child("sim"),
        transport=TransportModel(message_loss_probability=MESSAGE_LOSS),
        failure_model=ChurnModel(CHURN_PER_CYCLE),
    )
    simulator.run(CYCLES)
    sizes = trimmed_size_estimates(simulator.state_array())
    reported = sizes[np.isfinite(sizes)]
    return {
        "instances": instances,
        "min": float(reported.min()),
        "max": float(reported.max()),
        "mean": float(reported.mean()),
        "survivors": len(simulator.participant_ids()),
    }


def run_adaptive(epochs: int = 6, seed: int = 11) -> float:
    """The practical protocol: multi-epoch adaptive COUNT on the fast path.

    Returns the relative error of the last epoch's size estimate.
    """
    initial_guess = NETWORK_SIZE // 4
    result = run_epoched_count(
        TopologySpec("newscast", degree=30),
        NETWORK_SIZE,
        epochs,
        RandomSource(seed),
        concurrent_target=10.0,
        initial_estimate=initial_guess,
        epoch_config=EpochConfig(cycles_per_epoch=20),
        transport=TransportModel(message_loss_probability=MESSAGE_LOSS),
        failure_factory=lambda epoch_id: ChurnModel(CHURN_PER_CYCLE),
    )
    print(
        f"\nAdaptive monitoring: starting from the wrong guess N^ = {initial_guess}, "
        f"{epochs} epochs of 20 cycles, ~10 concurrent leaders\n"
    )
    print(f"{'epoch':>5}  {'leaders':>7}  {'P_lead':>8}  {'estimate':>10}  {'rel. error':>10}  {'joined':>6}")
    for record in result.records:
        error = abs(record.size_estimate - NETWORK_SIZE) / NETWORK_SIZE
        print(
            f"{record.epoch_id:>5}  {record.leader_count:>7}  {record.lead_probability:>8.3f}  "
            f"{record.size_estimate:>10.1f}  {error:>9.1%}  {record.joined_count:>6}"
        )
    print(
        "\nThe first election uses the wrong estimate (too many leaders); the "
        "epoch's own COUNT output feeds the next election, so P_lead settles at "
        "C/N and the estimate tracks the true size despite churn and loss."
    )
    return abs(result.records[-1].size_estimate - NETWORK_SIZE) / NETWORK_SIZE


def main() -> int:
    print(
        f"COUNT over a churning network: true size {NETWORK_SIZE}, "
        f"{CHURN_PER_CYCLE} nodes substituted per cycle, "
        f"{MESSAGE_LOSS:.0%} message loss, {CYCLES} cycles\n"
    )
    print(f"{'instances':>10}  {'min':>10}  {'mean':>10}  {'max':>10}  {'max rel. error':>15}")
    for instances in (1, 5, 20):
        summary = run_count(instances, seed=11)
        worst = max(abs(summary["min"] - NETWORK_SIZE), abs(summary["max"] - NETWORK_SIZE))
        print(
            f"{summary['instances']:>10}  {summary['min']:>10.1f}  {summary['mean']:>10.1f}  "
            f"{summary['max']:>10.1f}  {worst / NETWORK_SIZE:>14.1%}"
        )
    print(
        "\nRunning ~20 concurrent instances and trimming the extremes keeps every "
        "node's size estimate close to the truth even under continuous churn, "
        "matching Figure 8 of the paper."
    )
    final_error = run_adaptive()
    return 0 if final_error <= FINAL_TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())

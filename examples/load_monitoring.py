#!/usr/bin/env python
"""Adaptive load monitoring with the full practical protocol.

The paper motivates proactive aggregation with load balancing: every node
needs a continuously updated estimate of the *average load* so it knows
when to stop transferring work.  This example runs the practical protocol
(epochs, restarts, exchange timeouts, message delays) on the asynchronous
engine:

* 60 nodes run asynchronous AVERAGE (:func:`repro.simulator.build_async_average`)
  over a random overlay;
* each node's local load *changes over time* (a load spike hits half of
  the nodes at the start of epoch 3);
* every epoch restart re-reads the current loads, so the reported average
  tracks the change — the protocol is adaptive, exactly as Section 4.1
  describes.

The script exits non-zero unless every node reports the new true average
(within 1 %) in the spike epoch itself.

Run with:  PYTHONPATH=src python examples/load_monitoring.py
"""

from __future__ import annotations

import sys

from repro import EpochConfig, RandomSource
from repro.simulator import build_async_average
from repro.simulator.asynchrony import LAN
from repro.topology import TopologySpec, build_overlay

NODE_COUNT = 60
CYCLES_PER_EPOCH = 20
EPOCHS_TO_RUN = 6
SPIKE_EPOCH = 3  # the load spike becomes visible from this epoch on
SPIKE = 50.0


def main() -> int:
    rng = RandomSource(7)
    overlay = build_overlay(TopologySpec("random", degree=8), NODE_COUNT, rng.child("topology"))
    base_loads = [rng.child("load", node).uniform(10.0, 30.0) for node in range(NODE_COUNT)]
    spiky = range(0, NODE_COUNT, 2)
    config = EpochConfig(cycle_length=1.0, cycles_per_epoch=CYCLES_PER_EPOCH)
    simulator, protocol = build_async_average(
        overlay,
        dict(enumerate(base_loads)),
        rng.child("network"),
        LAN.with_overrides(min_delay=0.01, max_delay=0.05, timeout=0.3),
        epoch_config=config,
    )

    print(f"Monitoring the average load of {NODE_COUNT} nodes "
          f"({CYCLES_PER_EPOCH} cycles per epoch)\n")
    print(f"{'epoch':>5}  {'true average':>14}  {'reported (min..max over nodes)':>34}")

    true_averages = []
    for epoch in range(EPOCHS_TO_RUN):
        if epoch == SPIKE_EPOCH:
            # Nodes pick a changed value up when they enter their next
            # epoch, i.e. in the first window of this one.
            for node in spiky:
                protocol.set_value(node, base_loads[node] + SPIKE)
        true_averages.append(
            sum(protocol.value_of(node) for node in range(NODE_COUNT)) / NODE_COUNT
        )
        # Window epoch·γ holds the restart into this epoch; the estimates
        # of an epoch are reported at the restart that ends it.
        simulator.run(CYCLES_PER_EPOCH)
    simulator.run(1)

    for epoch, true_average in enumerate(true_averages):
        reported = protocol.epoch_estimates[epoch]
        print(
            f"{epoch:>5}  {true_average:>14.3f}  "
            f"{min(reported):>15.3f} .. {max(reported):<15.3f}"
        )

    spike_reports = protocol.epoch_estimates[SPIKE_EPOCH]
    spike_truth = true_averages[SPIKE_EPOCH]
    tracked = all(abs(value - spike_truth) <= 0.01 * spike_truth for value in spike_reports)
    print(
        "\nThe spike that hits half the nodes at epoch "
        f"{SPIKE_EPOCH} shows up in the very next reported estimate: the "
        "protocol adapts because every epoch restarts from fresh local values."
    )
    return 0 if tracked else 1


if __name__ == "__main__":
    sys.exit(main())

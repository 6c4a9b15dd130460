#!/usr/bin/env python
"""What does one stacked figure point with crashes cost at the paper's size?

Runs ten repetitions of one AVERAGE point through ``repeat_traces`` over
a ``RunPlan``: N = 10^5 nodes each (or the size given) on the random
20-out overlay, 10 % link failure, 1,000 crashes per cycle per
repetition (``CountCrashModel(1000)``; a tenth of the nodes below
N = 10^4) and 5 cycles, seed 2004.  Prints the mean convergence factor,
the wall time and the peak resident memory of this process and of its
largest worker.

The repetitions run as stacked groups of at most 16 MiB of
law-predicted bytes; a replica at N = 10^5 (about 32 MB) runs alone, so
a process holds one overlay's ragged row store (4 bytes per stored
neighbour, 25 bytes per row), one float64 value array and one state
block at a time, with no Python object per node; each cycle's 1,000
crashes leave their neighbours' rows in groups of a fixed entry budget.
The ten groups fan out over one forked worker per usable CPU
(``taskset -c 0`` keeps them in this process).  On a 2-vCPU Xeon the
fanned run reads 37-38 MB here and 76 MB in the largest worker, in
2.5-3.1 s; one process reads 82-84 MB in 2.3-2.4 s (121 MB while each
replica's k-out build sorted every key at once, 371 MB when the ten ran
as one stacked simulation, 595 MB when ids and values were Python
objects and a crash event was removed in one pass).

Exits non-zero only if the run raises or the larger of the two peaks is
above 125 MB, about 1.5x that reading.  The wall time is reported, never
judged.

Run with:  python examples/stacked_repeats_cost.py [size]
"""

from __future__ import annotations

import resource
import sys
import time

from repro.experiments.runner import RunPlan, repeat_traces, uniform_initial_values
from repro.simulator.failures import CountCrashModel
from repro.simulator.transport import TransportModel
from repro.topology import TopologySpec

REPEATS = 10
RSS_LIMIT_MB = 125


def run(size: int) -> float:
    """Run the point at ``size`` nodes per repetition; the mean convergence factor."""
    plan = RunPlan(
        topology=TopologySpec("random", degree=20),
        size=size,
        cycles=5,
        values=uniform_initial_values,
        transport=TransportModel(link_failure_probability=0.1),
        failure_factory=lambda: CountCrashModel(min(1000, size // 10)),
    )
    traces = repeat_traces(REPEATS, 2004, plan=plan)
    return sum(trace.average_convergence_factor() for trace in traces) / len(traces)


def main() -> int:
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    start = time.perf_counter()
    factor = run(size)
    wall = time.perf_counter() - start
    own_mb, workers_mb = (
        resource.getrusage(who).ru_maxrss / 1024
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    print(f"{REPEATS} repetitions of N={size}: mean convergence factor {factor:.4f}")
    print(
        f"wall {wall:.1f} s, peak RSS {own_mb:.0f} MB here, {workers_mb:.0f} MB in the "
        f"largest worker (limit {RSS_LIMIT_MB} MB)"
    )
    return 1 if max(own_mb, workers_mb) > RSS_LIMIT_MB else 0


if __name__ == "__main__":
    sys.exit(main())

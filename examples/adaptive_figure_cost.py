#!/usr/bin/env python
"""What does an adaptive COUNT figure cost at the paper's network size?

Runs one adaptive COUNT figure once at N = 10^5 with one repetition
(seed 2004), and prints its rows, the wall time and the peak resident
memory of this process and of its largest worker (the one repetition
runs here; with more, repetitions after the first fan out over forked
workers):

* ``adaptive`` (the default) — ``ALL_FIGURES["adaptive"]``, ten epochs
  of adaptive multi-leader COUNT over array NEWSCAST (c = 30) under
  0.5 % churn per cycle and 5 % message loss, from a size guess four
  times too small.  Each epoch holds one state block of participants ×
  2·leaders × 8 bytes (130 MB for the first epoch's 81 leaders) beside
  the overlay; it reads 210 MB on a 2-vCPU Xeon.
* ``adaptive-async`` — ``ALL_FIGURES["adaptive-async"]`` over epochs
  0, 1 and 2: the same loop on the asynchronous engine (1 % clock drift,
  5 % loss) over a random 20-out overlay.  Two epoch blocks of entrants ×
  2·leaders × 8 bytes are live around a boundary (112 MB for the first
  epoch's 70 leaders); it reads 232 MB.

Exits non-zero only if the run raises or the larger of the two peaks is
above the figure's limit, about 1.5× its reading.  The wall time is
reported, never judged.

Run with:  python examples/adaptive_figure_cost.py [adaptive|adaptive-async]
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

from repro.experiments import ALL_FIGURES, BENCH

#: Per figure: the options of its call and its peak RSS limit in MB.
FIGURES = {
    "adaptive": ({}, 315),
    "adaptive-async": ({"points": [0, 1, 2]}, 350),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("figure", nargs="?", default="adaptive", choices=sorted(FIGURES))
    figure = parser.parse_args().figure
    options, limit = FIGURES[figure]
    scale = BENCH.with_overrides(network_size=100_000, repeats=1, sweep_points=2)
    start = time.perf_counter()
    result = ALL_FIGURES[figure](scale, **options)
    wall = time.perf_counter() - start
    own_mb, workers_mb = (
        resource.getrusage(who).ru_maxrss / 1024
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    print(result.render())
    print(
        f"\nwall {wall:.1f} s, peak RSS {own_mb:.0f} MB here, {workers_mb:.0f} MB in the "
        f"largest worker (limit {limit} MB)"
    )
    return 1 if max(own_mb, workers_mb) > limit else 0


if __name__ == "__main__":
    sys.exit(main())

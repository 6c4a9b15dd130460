#!/usr/bin/env python
"""What does the adaptive COUNT figure cost at the paper's network size?

Runs ``ALL_FIGURES["adaptive"]`` — ten epochs of adaptive multi-leader
COUNT over array NEWSCAST (c = 30) under 0.5 % churn per cycle and 5 %
message loss, from a size guess four times too small — once at
N = 10^5 with one repetition (two sweep points, seed 2004), and prints
its rows, the wall time and the peak resident memory of this process.
Exits non-zero only if the run raises or peaks above 315 MB, about 1.5×
the 210 MB it reads on a 2-vCPU Xeon: each epoch holds one state block of
participants × 2·leaders × 8 bytes (130 MB for the first epoch's 81
leaders) beside the overlay.  The wall time is reported, never judged.

Run with:  python examples/adaptive_figure_cost.py
"""

from __future__ import annotations

import resource
import sys
import time

from repro.experiments import ALL_FIGURES, BENCH

RSS_LIMIT_MB = 315


def main() -> int:
    scale = BENCH.with_overrides(network_size=100_000, repeats=1, sweep_points=2)
    start = time.perf_counter()
    result = ALL_FIGURES["adaptive"](scale)
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(result.render())
    print(f"\nwall {wall:.1f} s, peak RSS {peak_mb:.0f} MB (limit {RSS_LIMIT_MB} MB)")
    return 1 if peak_mb > RSS_LIMIT_MB else 0


if __name__ == "__main__":
    sys.exit(main())

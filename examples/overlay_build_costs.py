#!/usr/bin/env python
"""What does it cost to build each overlay at the paper's scale?

Builds every static topology family, plus the array NEWSCAST overlay
with the paper's c = 30 (bootstrap and its five warm-up rounds), once
at N = 10^5, or at the size given (10^6 is the top of the Figure 3(a)
sweep), with degree 20, W-S at beta = 0.25 and seed 2004, each in a
fresh interpreter so the reported peak resident memory is that build's
alone, and prints the wall time and peak RSS per family.  Exits non-zero
only if a build raises or a process peaks above 2 GB; the times are
reported, never judged.

Run with:  python examples/overlay_build_costs.py [size]
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time

from repro.common.rng import RandomSource
from repro.topology import TopologySpec, build_overlay

SPECS = {
    "random": TopologySpec("random", degree=20),
    "complete": TopologySpec("complete"),
    "ring-lattice": TopologySpec("ring-lattice", degree=20),
    "watts-strogatz": TopologySpec("watts-strogatz", degree=20, beta=0.25),
    "scale-free": TopologySpec("scale-free", degree=20),
    "newscast": TopologySpec("newscast", degree=30),
}
RSS_LIMIT_MB = 2048


def build_one(family: str, size: int) -> dict:
    """Build one overlay in this process; wall time and peak RSS."""
    start = time.perf_counter()
    overlay = build_overlay(SPECS[family], size, RandomSource(2004))
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"family": family, "nodes": overlay.size(), "wall_s": wall, "peak_rss_mb": peak_mb}


def main() -> int:
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    failed = False
    print(f"{'family':<16}{'wall (s)':>10}{'peak RSS (MB)':>16}")
    for family in SPECS:
        done = subprocess.run(
            [sys.executable, __file__, "--one", family, str(size)],
            capture_output=True,
            text=True,
        )
        if done.returncode != 0:
            print(f"{family:<16} failed:\n{done.stderr}")
            failed = True
            continue
        record = json.loads(done.stdout)
        over = record["peak_rss_mb"] > RSS_LIMIT_MB
        failed |= over
        print(
            f"{family:<16}{record['wall_s']:>10.2f}{record['peak_rss_mb']:>16.0f}"
            + (f"  over the {RSS_LIMIT_MB} MB limit" if over else "")
        )
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:
        print(json.dumps(build_one(sys.argv[2], int(sys.argv[3]))))
    else:
        sys.exit(main())

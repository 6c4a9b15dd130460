#!/usr/bin/env python
"""How much does the overlay topology matter for gossip aggregation?

Reproduces the qualitative content of Figure 3/4 of the paper at a small
scale: the convergence factor (the per-cycle variance reduction, lower is
better) is measured on every topology family the paper studies, from the
fully ordered ring lattice to the complete graph, including the dynamic
NEWSCAST overlay.

Run with:  python examples/topology_comparison.py
"""

from __future__ import annotations

from repro.analysis.theory import PUSH_PULL_CONVERGENCE_FACTOR
from repro.experiments import ALL_FIGURES, ExperimentScale, render_table, standard_topologies


def main() -> None:
    scale = ExperimentScale(name="example", network_size=1000, repeats=5, sweep_points=3, seed=13)
    topologies = standard_topologies(degree=20, newscast_cache=30)
    result = ALL_FIGURES["3a"](
        scale, points=[(1000, spec) for spec in topologies], cycles=20
    )
    rows = sorted(result.rows, key=lambda row: row["convergence_factor"])
    print(render_table(rows, title="Convergence factor per topology (1000 nodes, 20 cycles)"))
    print(
        f"\nTheoretical factor for sufficiently random overlays: "
        f"1/(2*sqrt(e)) = {PUSH_PULL_CONVERGENCE_FACTOR:.4f}"
    )
    print(
        "Random, scale-free, NEWSCAST and the complete graph all sit near the "
        "theoretical optimum; the ring lattice (W-S with beta=0) is dramatically "
        "slower, and increasing the rewiring probability beta closes the gap — "
        "the same ordering as Figures 3 and 4 of the paper."
    )


if __name__ == "__main__":
    main()

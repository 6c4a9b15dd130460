#!/usr/bin/env python
"""Run the robustness validation grid and emit a degradation summary.

Usage::

    python examples/robustness_grid.py                 # print JSON to stdout
    python examples/robustness_grid.py summary.json    # also write to a file

Two checks, scaled by ``REPRO_SCALE`` (``smoke``/``bench``/``default``/
``paper``):

* **Byzantine degradation** — multi-instance COUNT under the targeted
  colluding attack, swept over byzantine fractions 0–20%.  For every
  fraction the summary records the median relative error an honest node
  reports under the single-instance, trimmed-mean and median-of-instances
  reducers, plus whether the hardened median stayed strictly more robust
  than a single instance.
* **Partition recovery** — AVERAGE over NEWSCAST through a partition
  outage.  The summary records the effective component count during the
  outage, the cycle the overlay re-merged, and the final cross-side
  estimate gap.

CI runs this at bench scale on every push and uploads the JSON as the
``robustness-grid`` artifact, so degradations in either defence show up
as a diff in the artifact history.
"""

from __future__ import annotations

import json
import math
import sys

from repro.experiments import ALL_FIGURES, scale_from_environment
from repro.experiments.config import BENCH


def finite_or_str(value: float):
    """Keep the artifact strict JSON: inf/nan become strings."""
    return value if math.isfinite(value) else str(value)


def byzantine_summary(scale) -> dict:
    figure = ALL_FIGURES["byzantine"](scale, cycles=25)
    points = []
    hardened_strictly_better = True
    for row in figure.rows:
        fraction = row["byzantine_fraction"]
        points.append(
            {
                "byzantine_fraction": fraction,
                "single_instance_error": finite_or_str(row["single_instance_error"]),
                "trimmed_error": finite_or_str(row["trimmed_error"]),
                "median_error": finite_or_str(row["median_error"]),
            }
        )
        if fraction > 0 and not row["median_error"] < row["single_instance_error"]:
            hardened_strictly_better = False
    return {
        "figure": figure.figure_id,
        "parameters": figure.parameters,
        "points": points,
        "median_strictly_beats_single_instance": hardened_strictly_better,
    }


def partition_summary(scale) -> dict:
    cycles = 22
    figure = ALL_FIGURES["partition"](scale, cycles=cycles)
    # The outage window is a constant of the figure: "[start, heal)".
    heal_cycle = int(figure.parameters["partition_window"].strip("[)").split(",")[1])
    by_cycle = {row["cycle"]: row for row in figure.rows}
    split_components = max(
        row["components"] for row in figure.rows if row["partition_active"]
    )
    remerged_at = next(
        (
            cycle
            for cycle in range(heal_cycle, cycles + 1)
            if by_cycle[cycle]["components"] == 1
        ),
        None,
    )
    return {
        "figure": figure.figure_id,
        "parameters": figure.parameters,
        "components_during_outage": split_components,
        "overlay_split": split_components >= 2,
        "remerged_at_cycle": remerged_at,
        "final_side_gap": by_cycle[cycles]["side_gap"],
        "final_variance": by_cycle[cycles]["variance"],
        "reconverged": by_cycle[cycles]["side_gap"] < 0.5
        and by_cycle[cycles]["components"] == 1,
    }


def main(argv: list) -> int:
    scale = scale_from_environment(default=BENCH)
    summary = {
        "scale": scale.name,
        "network_size": scale.network_size,
        "byzantine": byzantine_summary(scale),
        "partition": partition_summary(scale),
    }
    healthy = (
        summary["byzantine"]["median_strictly_beats_single_instance"]
        and summary["partition"]["overlay_split"]
        and summary["partition"]["reconverged"]
    )
    summary["healthy"] = healthy
    text = json.dumps(summary, indent=2, default=str)
    print(text)
    if argv:
        with open(argv[0], "w") as handle:
            handle.write(text + "\n")
        print(f"\nwrote {argv[0]}", file=sys.stderr)
    return 0 if healthy else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

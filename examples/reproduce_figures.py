#!/usr/bin/env python
"""Regenerate the data behind any figure of the paper.

Usage::

    python examples/reproduce_figures.py               # list available figures
    python examples/reproduce_figures.py 2 7a 8b       # reproduce selected figures
    python examples/reproduce_figures.py all           # reproduce everything

The experiment scale is controlled by the ``REPRO_SCALE`` environment
variable (``smoke``, ``bench``, ``default`` or ``paper``); the default
used here is the ``default`` preset (a few thousand nodes), which
produces recognisable shapes in minutes.  ``paper`` uses the
publication's 10^5 nodes and 50 repetitions.

Every figure is one record of the ``ALL_FIGURES`` table
(:mod:`repro.experiments.figures`), and calling it runs the figure's
default sweep at the chosen scale.  Repeats are batched: each sweep
point describes its repetitions as a declarative
:class:`~repro.experiments.runner.RunPlan`, so the repeats of a point run
as stacked simulations on the replicated tensor engine, as many at once
as fit a fixed byte budget (bit-identical to serial repeats).  The two
adaptive epoch figures repeat one opaque run at a time.

Work is spread over processes: a figure's sweep points (and the adaptive
figures' repetitions after the first) run on one forked worker per usable
CPU once a point's nodes × repeats × cycles reach 10^5 (every DEFAULT and
PAPER point; SMOKE and BENCH points stay in this process).  The rows are
bit-identical either way.  Fan-out needs the ``fork`` start method and
runs in one process elsewhere; ``taskset -c 0 python
examples/reproduce_figures.py ...`` gives a serial run.
"""

from __future__ import annotations

import sys

from repro.experiments import DEFAULT, ALL_FIGURES, scale_from_environment


def main(argv: list[str]) -> int:
    scale = scale_from_environment(default=DEFAULT)
    if not argv:
        print("Available figures:", ", ".join(sorted(ALL_FIGURES)))
        print("Usage: python examples/reproduce_figures.py <figure-id>... | all")
        return 0
    wanted = sorted(ALL_FIGURES) if argv == ["all"] else argv
    unknown = [figure for figure in wanted if figure not in ALL_FIGURES]
    if unknown:
        print(f"Unknown figure id(s): {', '.join(unknown)}")
        print("Available figures:", ", ".join(sorted(ALL_FIGURES)))
        return 1
    print(f"Reproducing {len(wanted)} figure(s) at scale '{scale.name}' "
          f"({scale.network_size} nodes, {scale.repeats} repetitions; "
          f"repeats batched on the replicated engine)\n")
    for figure_id in wanted:
        result = ALL_FIGURES[figure_id](scale)
        print(result.render())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

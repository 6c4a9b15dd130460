"""Shared experiment configuration.

Every figure-reproduction in :mod:`repro.experiments.figures` accepts an
:class:`ExperimentScale` that controls how big and how statistically heavy
the runs are.  The paper's experiments use 10^5 nodes (up to 10^6 for the
size sweep) and 50 repetitions per data point; a pure-Python simulator
cannot sweep a dozen scenarios at that size in CI-friendly time, so four
presets are provided:

* ``SMOKE`` — a few hundred nodes, a couple of repetitions; used by the
  test suite and the benchmark harness defaults.
* ``BENCH`` — the benchmark harness preset (what CI exports), slightly
  larger than smoke so figure shapes are meaningful.
* ``DEFAULT`` — low thousands of nodes, enough repetitions for the shapes
  of every figure to be recognisable; what the examples use.
* ``PAPER`` — the paper's parameters (10^5 nodes, 50 repetitions); runs
  for a long time but exercises exactly the published setting.

The preset can be chosen globally through the ``REPRO_SCALE`` environment
variable (``smoke`` / ``bench`` / ``default`` / ``paper``) so benchmark
runs can be scaled without touching code.  The scale is the only
environment knob: asynchronous runs name their impairments in code, as an
:class:`~repro.simulator.asynchrony.AsynchronyScenario` constant.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional

from ..common.errors import ConfigurationError
from ..common.validation import require_positive

__all__ = [
    "ExperimentScale",
    "SMOKE",
    "BENCH",
    "DEFAULT",
    "PAPER",
    "scale_from_environment",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs controlling the size and statistical weight of experiments.

    Attributes
    ----------
    network_size:
        Number of nodes simulated per run.
    repeats:
        Independent repetitions (distinct seeds) per data point.
    sweep_points:
        Number of points sampled along swept parameters (β, P_d, cache
        size, ...); the sweep range itself always matches the paper.
    seed:
        Root seed; every run derives its own child seed from it.
    """

    name: str
    network_size: int
    repeats: int
    sweep_points: int
    seed: int = 2004

    def __post_init__(self) -> None:
        require_positive(self.network_size, "network_size")
        require_positive(self.repeats, "repeats")
        require_positive(self.sweep_points, "sweep_points")

    def with_overrides(
        self,
        network_size: Optional[int] = None,
        repeats: Optional[int] = None,
        sweep_points: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> "ExperimentScale":
        """A copy of this scale with selected fields replaced."""
        return replace(
            self,
            network_size=network_size if network_size is not None else self.network_size,
            repeats=repeats if repeats is not None else self.repeats,
            sweep_points=sweep_points if sweep_points is not None else self.sweep_points,
            seed=seed if seed is not None else self.seed,
        )


#: Tiny runs for tests and benchmark smoke checks.
SMOKE = ExperimentScale(name="smoke", network_size=300, repeats=3, sweep_points=4)

#: Small-but-meaningful runs used by the benchmark harness (and by CI,
#: which exports ``REPRO_SCALE=bench``); matches the benchmark conftest's
#: default so the environment override round-trips.
BENCH = ExperimentScale(name="bench", network_size=400, repeats=3, sweep_points=4)

#: The default used by examples: recognisable shapes in minutes.
DEFAULT = ExperimentScale(name="default", network_size=2000, repeats=10, sweep_points=7)

#: The paper's own parameters (very slow in pure Python).
PAPER = ExperimentScale(name="paper", network_size=100_000, repeats=50, sweep_points=10)

_PRESETS = {"smoke": SMOKE, "bench": BENCH, "default": DEFAULT, "paper": PAPER}


def scale_from_environment(default: ExperimentScale = SMOKE) -> ExperimentScale:
    """Resolve the experiment scale from the ``REPRO_SCALE`` variable."""
    value = os.environ.get("REPRO_SCALE", "").strip().lower()
    if not value:
        return default
    if value not in _PRESETS:
        raise ConfigurationError(
            f"REPRO_SCALE must be one of {sorted(_PRESETS)}, got {value!r}"
        )
    return _PRESETS[value]

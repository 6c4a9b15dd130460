"""Measurements collected while a simulation runs.

The paper characterises protocol behaviour through the empirical mean and
variance of the local estimates (its equation (1)), the per-cycle
convergence factor ρ_i = E(σ²_i)/E(σ²_{i-1}), and the minimum/maximum
estimate across nodes.  This module defines the per-cycle record captured
by the simulators and the :class:`SimulationTrace` container with the
derived measures used by the experiment harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..common.errors import SimulationError

__all__ = [
    "estimate_statistics",
    "CycleRecord",
    "SimulationTrace",
]


def estimate_statistics(estimates: np.ndarray) -> tuple:
    """``(mean, variance, minimum, maximum)`` of one estimate population.

    The paper's eq. (1) statistics, the per-cycle reduction every engine
    records: NaN marks "no estimate yet" and infinities (COUNT before the
    peak arrives) are excluded; the variance takes the N−1 denominator.
    Finite extremes certify the whole array — NaN poisons ``min`` and
    infinities show up in ``max``/``min`` — so the common all-finite
    case skips the filter pass.  Splitting a
    stacked replica block and applying this per replica therefore
    reproduces the serial records bit-for-bit.

    Parameters
    ----------
    estimates:
        Float64 estimate array of one population (one run, or one
        replica's slice of a stacked run).
    """
    if estimates.size == 0:
        return math.nan, 0.0, math.nan, math.nan
    minimum = float(np.min(estimates))
    maximum = float(np.max(estimates))
    if math.isfinite(minimum) and math.isfinite(maximum):
        finite = estimates
    else:
        finite = estimates[np.isfinite(estimates)]
        if not finite.size:
            return math.nan, 0.0, math.nan, math.nan
        minimum = float(np.min(finite))
        maximum = float(np.max(finite))
    mean = float(np.mean(finite))
    if finite.size >= 2:
        deviations = finite - mean
        variance = float(deviations.dot(deviations) / (finite.size - 1))
    else:
        variance = 0.0
    return mean, variance, minimum, maximum


@dataclass(frozen=True)
class CycleRecord:
    """Snapshot of the estimate population at the end of one cycle.

    ``cycle`` 0 is the state *before* any exchange (the freshly initialised
    estimates); cycle ``i`` is the state after the i-th round of exchanges.
    """

    cycle: int
    participant_count: int
    mean: float
    variance: float
    minimum: float
    maximum: float
    completed_exchanges: int = 0
    failed_exchanges: int = 0


@dataclass
class SimulationTrace:
    """The full per-cycle history of one simulation run."""

    records: List[CycleRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def add(self, record: CycleRecord) -> None:
        """Append a cycle record (cycles must be added in order)."""
        if self.records and record.cycle <= self.records[-1].cycle:
            raise SimulationError(
                f"cycle records must be strictly increasing; got {record.cycle} "
                f"after {self.records[-1].cycle}"
            )
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def initial(self) -> CycleRecord:
        """The cycle-0 record (before any exchange)."""
        if not self.records:
            raise SimulationError("trace is empty")
        return self.records[0]

    @property
    def final(self) -> CycleRecord:
        """The most recent record."""
        if not self.records:
            raise SimulationError("trace is empty")
        return self.records[-1]

    def record_at(self, cycle: int) -> CycleRecord:
        """The record for a specific cycle index."""
        for record in self.records:
            if record.cycle == cycle:
                return record
        raise SimulationError(f"no record for cycle {cycle}")

    def cycles(self) -> List[int]:
        """All recorded cycle indices."""
        return [record.cycle for record in self.records]

    def means(self) -> List[float]:
        """Per-cycle empirical means."""
        return [record.mean for record in self.records]

    def variances(self) -> List[float]:
        """Per-cycle empirical variances."""
        return [record.variance for record in self.records]

    def minima(self) -> List[float]:
        """Per-cycle minimum estimates."""
        return [record.minimum for record in self.records]

    def maxima(self) -> List[float]:
        """Per-cycle maximum estimates."""
        return [record.maximum for record in self.records]

    # ------------------------------------------------------------------
    # Derived measures
    # ------------------------------------------------------------------
    def variance_reduction(self) -> List[float]:
        """Per-cycle variance normalised by the initial variance.

        This is exactly the quantity plotted in Figure 3(b) of the paper.
        Cycles whose variance is zero map to 0.0.
        """
        initial_variance = self.initial.variance
        if initial_variance <= 0.0:
            return [0.0 for _ in self.records]
        return [record.variance / initial_variance for record in self.records]

    def average_convergence_factor(self, cycles: Optional[int] = None) -> float:
        """Geometric-mean convergence factor over the first ``cycles`` cycles.

        This matches the paper's "average convergence factor computed over
        a period of 20 cycles" (Figure 3a): the per-cycle variance-reduction
        ratio averaged geometrically, i.e. ``(σ²_c / σ²_0)^(1/c)``.

        Parameters
        ----------
        cycles:
            Number of cycles to average over; defaults to the whole trace.
        """
        if len(self.records) < 2:
            raise SimulationError("need at least two records to compute a convergence factor")
        last_index = len(self.records) - 1 if cycles is None else min(cycles, len(self.records) - 1)
        if last_index < 1:
            raise SimulationError("need at least one completed cycle")
        initial_variance = self.records[0].variance
        final_variance = self.records[last_index].variance
        if initial_variance <= 0.0:
            return 0.0
        if final_variance <= 0.0:
            # Fully converged within the window: find the first zero and
            # treat the remaining cycles as free, giving a lower bound.
            for record in self.records[1: last_index + 1]:
                if record.variance <= 0.0:
                    final_variance = np.finfo(float).tiny
                    break
        ratio = final_variance / initial_variance
        return float(ratio ** (1.0 / last_index))

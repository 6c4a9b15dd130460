"""Empirical convergence measures computed over repeated simulation runs.

The experiment harness repeats every scenario several times with
independent seeds; the helpers in this module turn the resulting list of
:class:`~repro.simulator.metrics.SimulationTrace` objects into the
quantities the paper plots: average convergence factors (Figures 3a, 4, 7a),
normalised variance-reduction curves (Figure 3b), and the variance of the
estimated mean across runs relative to the initial variance (Figure 5).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from ..common.errors import ExperimentError
from ..simulator.metrics import SimulationTrace

__all__ = [
    "mean_convergence_factor",
    "variance_reduction_curve",
    "normalized_mean_variance",
]


def mean_convergence_factor(traces: Sequence[SimulationTrace], cycles: Optional[int] = None) -> float:
    """Average convergence factor over repeated runs (Figure 3a / 4 / 7a)."""
    if not traces:
        raise ExperimentError("no traces supplied")
    factors = [trace.average_convergence_factor(cycles) for trace in traces]
    return float(np.mean(factors))


def variance_reduction_curve(traces: Sequence[SimulationTrace]) -> List[float]:
    """Per-cycle normalised variance averaged across runs (Figure 3b).

    Traces of different lengths are truncated to the shortest.
    """
    if not traces:
        raise ExperimentError("no traces supplied")
    length = min(len(trace) for trace in traces)
    curves = np.array(
        [trace.variance_reduction()[:length] for trace in traces], dtype=float
    )
    return [float(value) for value in curves.mean(axis=0)]


def normalized_mean_variance(
    traces: Sequence[SimulationTrace],
    at_cycle: Optional[int] = None,
    subtract_initial: bool = True,
) -> float:
    """Var(µ_i) across runs divided by the mean initial variance (Figure 5).

    Theorem 1 describes the variance of the estimated mean *caused by
    crashes*, for a fixed initial value assignment (the recursion starts
    from Var(µ_0) = 0).  When every repetition draws fresh initial values,
    the raw across-run variance of µ_i additionally contains the sampling
    variance of µ_0 itself (≈ σ²_0/N), which would mask the crash effect;
    subtracting each run's own µ_0 (the default) isolates the
    crash-induced drift the theorem predicts.

    Parameters
    ----------
    traces:
        Repeated runs of the same scenario with independent seeds.
    at_cycle:
        The cycle at which the estimated mean is read (default: the final
        record of each trace).
    subtract_initial:
        Measure the drift ``µ_i − µ_0`` instead of the raw mean.
    """
    if len(traces) < 2:
        raise ExperimentError("need at least two runs to estimate the variance of the mean")
    if at_cycle is None:
        means = [trace.final.mean for trace in traces]
    else:
        means = [trace.record_at(at_cycle).mean for trace in traces]
    if subtract_initial:
        means = [mean - trace.initial.mean for mean, trace in zip(means, traces)]
    finite_means = [mean for mean in means if math.isfinite(mean)]
    if len(finite_means) < 2:
        raise ExperimentError("not enough finite mean estimates to compute a variance")
    initial_variances = [trace.initial.variance for trace in traces]
    expected_initial = float(np.mean(initial_variances))
    if expected_initial <= 0.0:
        raise ExperimentError("initial variance is zero; nothing to normalise by")
    return float(np.var(finite_means, ddof=1)) / expected_initial

"""High-level convenience API for running one aggregation epoch.

Most of the library exposes composable pieces (overlays, simulators,
functions).  This module offers the one-call entry point used by the
quickstart example and by downstream users who just want an answer:

>>> from repro import aggregate
>>> result = aggregate([3.0, 5.0, 10.0, 2.0] * 50, aggregate="average", seed=1)
>>> round(result.mean_estimate, 3)
5.0

The call builds an overlay, runs the requested number of push–pull cycles
of the named aggregate's (possibly composite) protocol over a
cycle-driven simulation, and returns the per-node outputs together with
accuracy information and the full measurement trace.

:data:`AGGREGATES` is the one table of what each name computes.  The
paper (Section 5) gets every derived aggregate by post-processing
converged AVERAGE-style states, and the table owns that arithmetic —
with ``â`` a node's estimate of an AVERAGE over the peak distribution and
``N̂ = 1/â`` (:func:`~repro.core.count.network_size_from_estimate`):

* COUNT = ``N̂``;
* SUM = ``x̄ · N̂`` (AVERAGE and COUNT side by side);
* PRODUCT = ``ĝ ^ N̂`` (GEOMETRIC MEAN and COUNT side by side);
* VARIANCE = ``E[x²] − E[x]²`` (AVERAGE over values and over squares);
* AVERAGE, MIN, MAX and GEOMETRIC MEAN read their single component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from ..common.errors import ConfigurationError
from ..common.rng import RandomSource
from ..simulator.failures import FailureModel
from ..simulator.metrics import SimulationTrace
from ..simulator.transport import PERFECT_TRANSPORT, TransportModel
from ..simulator.vectorized import VectorizedCycleSimulator
from ..topology.generators import TopologySpec, build_overlay
from .count import network_size_from_estimate, peak_initial_values
from .functions import (
    AggregationFunction,
    AverageFunction,
    GeometricMeanFunction,
    MaxFunction,
    MinFunction,
    VectorFunction,
)

__all__ = ["AggregateRecord", "AGGREGATES", "AggregationResult", "aggregate"]


@dataclass(frozen=True)
class AggregateRecord:
    """One aggregate: the protocol it runs and how its answer is read.

    Attributes
    ----------
    function:
        The (possibly vector) aggregation function the protocol runs.
    initial:
        Local values ``(n,)`` → per-node initial values, ``(n,)`` or
        ``(n, components)``.
    finalize:
        Converged ``(nodes, state_width)`` state block (a simulator's
        ``state_array()``) → the per-node outputs ``(nodes,)``.
    exact:
        Local values ``(n,)`` → the exact answer, for accuracy checks.
    """

    function: AggregationFunction
    initial: Callable[[np.ndarray], np.ndarray]
    finalize: Callable[[np.ndarray], np.ndarray]
    exact: Callable[[np.ndarray], float]


def _with_peak(values: np.ndarray) -> np.ndarray:
    """Pair every local value with the COUNT peak distribution (node 0 leads)."""
    return np.column_stack([values, peak_initial_values(values.size)])


def _non_negative(values: np.ndarray) -> np.ndarray:
    if np.any(values < 0):
        raise ConfigurationError(
            "PRODUCT and GEOMETRIC MEAN require non-negative local values"
        )
    return values


def _scaled_by_size(combine: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """Finalize ``combine(column 0, N̂ from column 1)``; ``inf`` where N̂ is."""

    def finalize(states: np.ndarray) -> np.ndarray:
        sizes = network_size_from_estimate(states[:, 1])
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(np.isfinite(sizes), combine(states[:, 0], sizes), np.inf)

    return finalize


def _first_column(states: np.ndarray) -> np.ndarray:
    return states[:, 0]


def _product(values: np.ndarray) -> float:
    with np.errstate(over="ignore"):
        return float(np.prod(_non_negative(values)))


def _geometric_mean(values: np.ndarray) -> float:
    # In log space: the plain product overflows long before the mean does.
    with np.errstate(divide="ignore"):
        return float(np.exp(np.mean(np.log(_non_negative(values)))))


#: Aggregate name → its record; the names :func:`aggregate` accepts.
AGGREGATES: Dict[str, AggregateRecord] = {
    "average": AggregateRecord(
        AverageFunction(), lambda x: x, _first_column, lambda x: float(np.mean(x)),
    ),
    "count": AggregateRecord(
        AverageFunction(),
        lambda x: np.asarray(peak_initial_values(x.size)),
        lambda states: network_size_from_estimate(states[:, 0]),
        lambda x: float(x.size),
    ),
    "sum": AggregateRecord(
        VectorFunction([AverageFunction(), AverageFunction()]),
        _with_peak,
        _scaled_by_size(np.multiply),
        lambda x: float(np.sum(x)),
    ),
    "product": AggregateRecord(
        VectorFunction([GeometricMeanFunction(), AverageFunction()]),
        lambda x: _with_peak(_non_negative(x)),
        _scaled_by_size(np.power),
        _product,
    ),
    "variance": AggregateRecord(
        VectorFunction([AverageFunction(), AverageFunction()]),
        lambda x: np.column_stack([x, x * x]),
        # Clamp the tiny negative round-off left once the estimates converge.
        lambda states: np.maximum(0.0, states[:, 1] - states[:, 0] ** 2),
        lambda x: float(np.var(x)),
    ),
    "min": AggregateRecord(
        MinFunction(), lambda x: x, _first_column, lambda x: float(np.min(x)),
    ),
    "max": AggregateRecord(
        MaxFunction(), lambda x: x, _first_column, lambda x: float(np.max(x)),
    ),
    "geometric-mean": AggregateRecord(
        GeometricMeanFunction(), _non_negative, _first_column, _geometric_mean,
    ),
}


def _relative_error(estimate: float, exact: float) -> float:
    """``|estimate − exact| / |exact|``; the absolute error when ``exact`` is 0."""
    if not math.isfinite(estimate):
        return math.inf
    if exact == 0.0:
        return abs(estimate)
    return abs(estimate - exact) / abs(exact)


@dataclass
class AggregationResult:
    """Outcome of one :func:`aggregate` call.

    Attributes
    ----------
    aggregate_name:
        Which aggregate was computed (a key of :data:`AGGREGATES`).
    node_estimates:
        The per-node outputs after the final cycle (already converted by
        the aggregate's ``finalize`` step — e.g. COUNT reports sizes, not
        reciprocals).
    mean_estimate:
        Mean of the finite per-node outputs (``inf`` when none is); the
        number most callers want.
    exact_value:
        The exact answer computed centrally from the input values.
    relative_error:
        ``|mean_estimate − exact_value| / |exact_value|`` (``inf`` when the
        estimate is not finite).
    trace:
        The full per-cycle measurement trace of the underlying protocol.
    """

    aggregate_name: str
    node_estimates: Dict[int, float]
    mean_estimate: float
    exact_value: float
    relative_error: float
    trace: SimulationTrace = field(repr=False)


def aggregate(
    values: Sequence[float],
    aggregate: str = "average",
    topology: Optional[TopologySpec] = None,
    cycles: int = 30,
    seed: int = 0,
    transport: TransportModel = PERFECT_TRANSPORT,
    failure_model: Optional[FailureModel] = None,
) -> AggregationResult:
    """Run one epoch of proactive aggregation over the given local values.

    Parameters
    ----------
    values:
        The local value of every node; node ``i`` holds ``values[i]`` and
        the network size is ``len(values)``.
    aggregate:
        The name of the aggregate, a key of :data:`AGGREGATES`.
    topology:
        The overlay to gossip over; defaults to the paper's random overlay
        with 20-neighbour views (capped below the network size).
    cycles:
        Number of push–pull cycles (γ); the paper's default epoch length
        of 30 cycles reduces the variance by roughly 20 orders of
        magnitude on a random overlay.
    seed:
        Root seed controlling every random choice.
    transport:
        Optional communication failure model.
    failure_model:
        Optional node failure/churn model.
    """
    if len(values) < 2:
        raise ConfigurationError("need at least two nodes to aggregate")
    record = AGGREGATES.get(aggregate) if isinstance(aggregate, str) else None
    if record is None:
        raise ConfigurationError(
            f"unknown aggregate {aggregate!r}; expected one of {sorted(AGGREGATES)}"
        )
    local = np.asarray(values, dtype=np.float64)

    size = local.size
    if topology is None:
        degree = min(20, size - 1)
        topology = TopologySpec("random", degree=degree)

    rng = RandomSource(seed)
    overlay = build_overlay(topology, size, rng.child("topology"))
    simulator = VectorizedCycleSimulator(
        overlay=overlay,
        function=record.function,
        initial_values=record.initial(local).tolist(),
        rng=rng.child("simulation"),
        transport=transport,
        failure_model=failure_model,
    )
    trace = simulator.run(cycles)

    outputs = record.finalize(simulator.state_array())
    finite = outputs[np.isfinite(outputs)]
    mean_estimate = float(np.mean(finite)) if finite.size else math.inf
    exact_value = record.exact(local)
    return AggregationResult(
        aggregate_name=aggregate,
        node_estimates=dict(zip(simulator.participant_ids().tolist(), outputs.tolist())),
        mean_estimate=mean_estimate,
        exact_value=exact_value,
        relative_error=_relative_error(mean_estimate, exact_value),
        trace=trace,
    )

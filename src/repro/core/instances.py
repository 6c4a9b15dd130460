"""Multiple concurrent aggregation instances (Section 7.3).

A single run of COUNT can be thrown off by an "unlucky" failure — for
example the leader crashing in the first cycles, or a lost response that
removes a large chunk of the conserved mass.  The paper's remedy is cheap:
run ``t`` concurrent, independently initialised instances of the protocol
(their states simply travel together in the same exchange messages), and
at the end of the epoch have every node combine the ``t`` estimates with a
symmetric trimmed mean — drop the ⌊t/3⌋ lowest and ⌊t/3⌋ highest values
and average the rest.  The third is the library's one trim share,
:data:`~repro.core.count.TRIM_FRACTION`.

This module builds the vector function and initial values for
multi-instance COUNT and provides the reducers: that trimmed mean, and a
median for colluding byzantine reporters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import ConfigurationError
from ..common.rng import RandomSource
from ..common.validation import require_positive
from ..analysis.statistics import trimmed_mean
from .count import count_estimates_from_matrix, network_size_from_estimate
from .functions import AverageFunction, VectorFunction

__all__ = [
    "MultiInstanceCount",
    "REDUCERS",
    "multi_instance_peak_values",
    "reduce_size_estimates",
]


#: Reduction rules for combining the ``t`` per-instance size estimates.
#: ``"trimmed"`` is the paper's Section 7.3 symmetric trimmed mean (drop
#: ``⌊t/3⌋`` from each end); ``"median"`` is the hardened variant that
#: stays correct as long as *strictly fewer than half* of the instances
#: are corrupted — the defence against colluding byzantine reporters that
#: ruin a coordinated subset of the instances (see
#: :mod:`repro.simulator.adversarial`).
REDUCERS = ("trimmed", "median")


def multi_instance_peak_values(
    node_ids: Sequence[int], instance_count: int, rng: RandomSource
) -> Tuple[Dict[int, Tuple[float, ...]], List[int]]:
    """Initial values for ``instance_count`` concurrent COUNT instances.

    Every instance independently picks one uniformly random leader that
    starts with value 1; all other nodes start with 0 in that instance.

    Returns
    -------
    A pair ``(values, leaders)`` where ``values`` maps every node id to a
    tuple with one component per instance and ``leaders`` lists the leader
    chosen for each instance.
    """
    require_positive(instance_count, "instance_count")
    if not node_ids:
        raise ConfigurationError("node_ids must not be empty")
    leaders = [node_ids[rng.choice_index(len(node_ids))] for _ in range(instance_count)]
    values: Dict[int, Tuple[float, ...]] = {}
    leader_sets = [set([leader]) for leader in leaders]
    for node in node_ids:
        values[node] = tuple(
            1.0 if node in leader_sets[index] else 0.0 for index in range(instance_count)
        )
    return values, leaders


def reduce_size_estimates(
    estimates: Sequence[Optional[float]], reducer: str = "trimmed"
) -> float:
    """Combine per-instance averaging estimates into one size estimate.

    Each estimate is first converted to a network-size guess (``1/x``);
    infinite guesses (instances whose mass vanished) are kept so that the
    trimming can discard them, exactly as ordering the raw estimates in
    the paper does.

    Parameters
    ----------
    estimates:
        Per-instance converged averaging estimates (``None`` allowed).
    reducer:
        One of :data:`REDUCERS`.  ``"trimmed"`` tolerates up to
        ``⌊t/3⌋`` ruined instances per tail; ``"median"``
        tolerates any corrupted *minority* regardless of how the lies are
        distributed.
    """
    if reducer not in REDUCERS:
        raise ConfigurationError(
            f"reducer must be one of {REDUCERS}, got {reducer!r}"
        )
    sizes = [network_size_from_estimate(estimate) for estimate in estimates]
    if not sizes:
        return math.inf
    if reducer == "median":
        return float(np.median(sizes))
    return trimmed_mean(sizes)


@dataclass
class MultiInstanceCount:
    """Bundle of everything needed to run a t-instance COUNT experiment.

    Attributes
    ----------
    function:
        A :class:`VectorFunction` of ``t`` independent AVERAGE components.
    initial_values:
        Mapping from node id to its t-component initial value tuple.
    leaders:
        The leader selected by each instance.
    reducer:
        Reduction rule, one of :data:`REDUCERS` (``"trimmed"`` is the
        paper's default; ``"median"`` is the byzantine-hardened variant).
    """

    function: VectorFunction
    initial_values: Dict[int, Tuple[float, ...]]
    leaders: List[int]
    reducer: str = "trimmed"

    def __post_init__(self) -> None:
        if self.reducer not in REDUCERS:
            raise ConfigurationError(
                f"reducer must be one of {REDUCERS}, got {self.reducer!r}"
            )

    @classmethod
    def create(
        cls,
        node_ids: Sequence[int],
        instance_count: int,
        rng: RandomSource,
        reducer: str = "trimmed",
    ) -> "MultiInstanceCount":
        """Build the function and initial values for ``instance_count`` instances."""
        values, leaders = multi_instance_peak_values(node_ids, instance_count, rng)
        function = VectorFunction([AverageFunction() for _ in range(instance_count)])
        return cls(
            function=function,
            initial_values=values,
            leaders=leaders,
            reducer=reducer,
        )

    @property
    def instance_count(self) -> int:
        """Number of concurrent instances ``t``."""
        return len(self.function)

    def node_size_estimate(self, state: Tuple[float, ...]) -> float:
        """The size estimate a node with vector state ``state`` would report."""
        estimates = self.function.estimates(state)
        return reduce_size_estimates(estimates, self.reducer)

    def size_estimates(self, states: Dict[int, Tuple[float, ...]]) -> Dict[int, float]:
        """Per-node size estimates for a whole population of states."""
        return {node: self.node_size_estimate(state) for node, state in states.items()}

    def size_estimates_array(self, state_block: np.ndarray) -> np.ndarray:
        """Batched reduction over a ``(nodes, t)`` state block.

        ``state_block`` is the raw array the vectorised engine holds for a
        t-instance COUNT run (``state_array()``), one AVERAGE column per
        instance.  Every instance is present at every node, so the trimmed
        reducer is :func:`~repro.core.count.count_estimates_from_matrix`
        with a full mask; results match :meth:`size_estimates` up to
        floating-point summation order.  The median reducer mirrors
        :func:`~repro.core.count.network_size_from_estimate` per cell
        (non-positive averages invert to an infinite size guess) before
        taking the per-node median.
        """
        block = np.asarray(state_block, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] != self.instance_count:
            raise ConfigurationError(
                f"expected a (nodes, {self.instance_count}) state block, "
                f"got shape {block.shape}"
            )
        if self.reducer == "median":
            sizes = np.full_like(block, np.inf)
            positive = block > 0.0
            sizes[positive] = 1.0 / block[positive]
            return np.median(sizes, axis=1)
        mask = np.ones_like(block, dtype=bool)
        return count_estimates_from_matrix(block, mask)

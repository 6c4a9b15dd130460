"""Multiple concurrent aggregation instances (Section 7.3).

A single run of COUNT can be thrown off by an "unlucky" failure — for
example the leader crashing in the first cycles, or a lost response that
removes a large chunk of the conserved mass.  The paper's remedy is cheap:
run ``t`` concurrent, independently initialised instances of the protocol
(their states simply travel together in the same exchange messages), and
at the end of the epoch have every node combine the ``t`` estimates.

This module builds the vector function and initial values for
multi-instance COUNT and owns the two reductions of a ``(nodes, t)``
block of converged instance averages, each a per-node ``1/â`` per
instance followed by:

* :func:`trimmed_size_estimates` — the paper's symmetric trimmed mean:
  drop the ⌊t/3⌋ lowest and ⌊t/3⌋ highest sizes and average the rest (the
  third is the library's one trim share,
  :data:`~repro.core.count.TRIM_FRACTION`);
* :func:`median_size_estimates` — the byzantine-hardened median, which
  stays correct as long as *strictly fewer than half* of the instances
  are corrupted (see :mod:`repro.simulator.adversarial`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..common.errors import ConfigurationError
from ..common.rng import RandomSource
from ..common.validation import require_positive
from .count import count_estimates_from_matrix, network_size_from_estimate
from .functions import AverageFunction, VectorFunction

__all__ = [
    "MultiInstanceCount",
    "multi_instance_peak_values",
    "trimmed_size_estimates",
    "median_size_estimates",
]


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
    ids = np.asarray(node_ids, dtype=np.int64).tolist()
    if not ids:
        raise ConfigurationError("node_ids must not be empty")
    leaders = [ids[rng.choice_index(len(ids))] for _ in range(instance_count)]
    values: Dict[int, Tuple[float, ...]] = {}
    leader_sets = [set([leader]) for leader in leaders]
    for node in ids:
        values[node] = tuple(
            1.0 if node in leader_sets[index] else 0.0 for index in range(instance_count)
        )
    return values, leaders


def _instance_block(state_block: np.ndarray) -> np.ndarray:
    block = np.asarray(state_block, dtype=np.float64)
    if block.ndim != 2:
        raise ConfigurationError(
            f"expected a (nodes, instances) state block, got shape {block.shape}"
        )
    return block


def trimmed_size_estimates(state_block: np.ndarray) -> np.ndarray:
    """Per-node size estimates of a ``(nodes, t)`` block: the paper's trimmed mean.

    ``state_block`` is the ``state_array()`` of a t-instance COUNT run, one
    AVERAGE column per instance.  Every instance is present at every node,
    so this is :func:`~repro.core.count.count_estimates_from_matrix` with a
    full mask: diverged instances (infinite sizes) sort to the top and are
    the first to be trimmed, and a node whose kept sizes are all infinite
    reports ``inf``.
    """
    block = _instance_block(state_block)
    return count_estimates_from_matrix(block, np.ones(block.shape, dtype=bool))


def median_size_estimates(state_block: np.ndarray) -> np.ndarray:
    """Per-node size estimates of a ``(nodes, t)`` block: the median instance size.

    The defence against colluding byzantine reporters that ruin a
    coordinated subset of the instances; infinite sizes take part in the
    ordering.
    """
    return np.median(network_size_from_estimate(_instance_block(state_block)), axis=1)


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
    """

    function: VectorFunction
    initial_values: Dict[int, Tuple[float, ...]]
    leaders: List[int]

    @classmethod
    def create(
        cls, node_ids: Sequence[int], instance_count: int, rng: RandomSource
    ) -> "MultiInstanceCount":
        """Build the function and initial values for ``instance_count`` instances."""
        values, leaders = multi_instance_peak_values(node_ids, instance_count, rng)
        function = VectorFunction([AverageFunction() for _ in range(instance_count)])
        return cls(function=function, initial_values=values, leaders=leaders)

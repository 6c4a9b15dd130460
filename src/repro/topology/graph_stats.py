"""Structural statistics for overlay graphs.

These helpers are used by tests (to check that generators produce graphs
with the expected structure), by examples, and by the ablation benchmarks
that relate overlay randomness to aggregation convergence speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from ..common.rng import RandomSource
from .base import StaticTopology

__all__ = ["GraphStatistics", "compute_graph_statistics", "estimate_average_path_length", "clustering_coefficient"]


@dataclass(frozen=True)
class GraphStatistics:
    """Summary statistics of a static overlay graph."""

    node_count: int
    edge_count: int
    min_degree: int
    max_degree: int
    mean_degree: float
    degree_std: float
    connected: bool
    clustering: float
    average_path_length_estimate: float

    def as_dict(self) -> dict:
        """Return the statistics as a plain dictionary (for reporting)."""
        return {
            "node_count": self.node_count,
            "edge_count": self.edge_count,
            "min_degree": self.min_degree,
            "max_degree": self.max_degree,
            "mean_degree": self.mean_degree,
            "degree_std": self.degree_std,
            "connected": self.connected,
            "clustering": self.clustering,
            "average_path_length_estimate": self.average_path_length_estimate,
        }


def clustering_coefficient(topology: StaticTopology, sample: int = 200, rng: RandomSource | None = None) -> float:
    """Average local clustering coefficient, estimated on a node sample.

    Parameters
    ----------
    topology:
        The graph to measure.
    sample:
        Number of nodes to sample (all nodes if the graph is smaller).
    rng:
        Randomness source for sampling; a fixed default is used if omitted.
    """
    rng = rng or RandomSource(7)
    nodes = topology.node_ids()
    if not nodes:
        return 0.0
    if len(nodes) > sample:
        nodes = rng.sample(nodes, sample)
    coefficients: List[float] = []
    for node in nodes:
        neighbours = set(topology.neighbors(node))
        k = len(neighbours)
        if k < 2:
            coefficients.append(0.0)
            continue
        # Every link among the neighbours is seen from both of its ends.
        links = sum(
            len(neighbours.intersection(topology.neighbors(peer))) for peer in neighbours
        ) // 2
        coefficients.append(2.0 * links / (k * (k - 1)))
    return float(np.mean(coefficients))


def estimate_average_path_length(
    topology: StaticTopology, sources: int = 20, rng: RandomSource | None = None
) -> float:
    """Estimate the average shortest-path length via BFS from sampled sources.

    Unreachable pairs are ignored; returns ``inf`` when no pair is
    reachable (e.g. an edgeless graph).
    """
    rng = rng or RandomSource(11)
    nodes = topology.node_ids()
    if len(nodes) < 2:
        return 0.0
    origins = rng.sample(nodes, min(sources, len(nodes)))
    total = 0
    pairs = 0
    for origin in origins:
        distances = {origin: 0}
        frontier = [origin]
        while frontier:
            next_frontier = []
            for node in frontier:
                for neighbour in topology.neighbors(node):
                    if neighbour not in distances:
                        distances[neighbour] = distances[node] + 1
                        next_frontier.append(neighbour)
            frontier = next_frontier
        for node, distance in distances.items():
            if node != origin:
                total += distance
                pairs += 1
    if pairs == 0:
        return math.inf
    return total / pairs


def compute_graph_statistics(topology: StaticTopology) -> GraphStatistics:
    """Compute :class:`GraphStatistics` for a static topology."""
    degrees = topology.degree_sequence()
    if not degrees:
        return GraphStatistics(0, 0, 0, 0, 0.0, 0.0, True, 0.0, 0.0)
    degree_array = np.asarray(degrees, dtype=float)
    return GraphStatistics(
        node_count=topology.size(),
        edge_count=topology.edge_count(),
        min_degree=int(degree_array.min()),
        max_degree=int(degree_array.max()),
        mean_degree=float(degree_array.mean()),
        degree_std=float(degree_array.std()),
        connected=topology.is_connected(),
        clustering=clustering_coefficient(topology),
        average_path_length_estimate=estimate_average_path_length(topology),
    )

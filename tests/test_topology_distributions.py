"""The array builders against networkx's reference generators, in law.

The array Watts–Strogatz and Barabási–Albert builders draw their graphs
in batches, so no graph equals networkx's draw for draw; what must match
is the distribution.  Each statistic is averaged over seeds 0, 1, 2 on
both sides at N = 1000 and the two means must agree within a band set at
least twice the largest seed spread (max − min over the three seeds) we
measured on either side.
"""

import networkx as nx
import numpy as np
import pytest

from repro.common.rng import RandomSource
from repro.topology import StaticTopology, barabasi_albert_topology, watts_strogatz_topology

SIZE = 1000
SEEDS = (0, 1, 2)
ATTACHMENT = 5


def from_networkx(graph) -> StaticTopology:
    return StaticTopology({node: set(graph[node]) for node in graph})


def mean_over_seeds(statistic, build):
    return float(np.mean([statistic(build(seed)) for seed in SEEDS]))


def clustering_coefficient(graph) -> float:
    """Mean local clustering of 200 nodes drawn by a fixed stream."""
    nodes = RandomSource(7).sample(sorted(graph), 200)
    local = nx.clustering(graph, nodes)
    return float(np.mean([local[node] for node in nodes]))


def estimate_average_path_length(graph) -> float:
    """Mean shortest-path length from 20 sources drawn by a fixed stream."""
    lengths = [
        nx.single_source_shortest_path_length(graph, source)
        for source in RandomSource(11).sample(sorted(graph), 20)
    ]
    return sum(sum(found.values()) for found in lengths) / sum(len(found) - 1 for found in lengths)


class TestWattsStrogatzAgainstNetworkx:
    """k = 10.  Measured seed spreads, ours / networkx:

    =====  ===============  ==================
    beta   clustering       path-length est.
    =====  ===============  ==================
    0.10   0.0049 / 0.0166  0.254 / 0.073
    0.25   0.0175 / 0.0120  0.018 / 0.039
    0.50   0.0040 / 0.0054  0.036 / 0.040
    =====  ===============  ==================

    Bands: clustering 0.04 (≥ 2 × 0.0175), path length 0.55 (≥ 2 × 0.254).
    Measured mean gaps were at most 0.011 and 0.061.
    """

    @pytest.mark.parametrize("beta", [0.1, 0.25, 0.5])
    @pytest.mark.parametrize(
        "statistic, band",
        [(clustering_coefficient, 0.04), (estimate_average_path_length, 0.55)],
    )
    def test_statistic_matches(self, beta, statistic, band):
        ours = mean_over_seeds(
            statistic,
            lambda seed: watts_strogatz_topology(SIZE, 10, beta, RandomSource(seed)).to_networkx(),
        )
        reference = mean_over_seeds(
            statistic, lambda seed: nx.watts_strogatz_graph(SIZE, 10, beta, seed=seed)
        )
        assert abs(ours - reference) <= band


def max_over_mean_degree(topology):
    degrees = np.asarray(topology.degree_sequence())
    return degrees.max() / degrees.mean()


def share_at_least_4m(topology):
    return float(np.mean(np.asarray(topology.degree_sequence()) >= 4 * ATTACHMENT))


class TestBarabasiAlbertAgainstNetworkx:
    """m = ATTACHMENT = 5.  Measured seed spreads, ours / networkx: max/mean degree
    1.71 / 1.41, share of nodes with degree ≥ 4m 0.003 / 0.005.

    Bands: max/mean 3.5 (≥ 2 × 1.71), share 0.012 (≥ 2 × 0.005).  Measured
    mean gaps were 0.71 and 0.000.
    """

    @staticmethod
    def ours(seed):
        return barabasi_albert_topology(SIZE, ATTACHMENT, RandomSource(seed))

    def test_edge_count_minimum_degree_and_connectivity(self):
        m = ATTACHMENT
        for seed in SEEDS:
            topology = self.ours(seed)
            assert topology.edge_count() == m * (SIZE - m - 1) + m * (m + 1) // 2
            assert min(topology.degree_sequence()) >= m
            assert topology.is_connected()

    @pytest.mark.parametrize(
        "statistic, band", [(max_over_mean_degree, 3.5), (share_at_least_4m, 0.012)]
    )
    def test_statistic_matches(self, statistic, band):
        ours = mean_over_seeds(statistic, self.ours)
        reference = mean_over_seeds(
            statistic,
            lambda seed: from_networkx(nx.barabasi_albert_graph(SIZE, ATTACHMENT, seed=seed)),
        )
        assert abs(ours - reference) <= band

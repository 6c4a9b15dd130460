"""Array component labelling against the breadth-first search it replaced.

:func:`bfs_effective_components` is the per-node search
``effective_components`` ran before it became an array pass, kept here
as the oracle: for every overlay, reachability model and cycle the two
must return the very same component lists.
"""

from typing import Dict, List

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import RandomSource
from repro.newscast import VectorizedNewscastOverlay
from repro.simulator.failures import PartitionOutageModel
from repro.topology import effective_components
from repro.topology.partitions import component_labels


def bfs_effective_components(overlay, reachability=None, cycle_index=0) -> List[List[int]]:
    """Per-node breadth-first search over the effective graph (the oracle)."""
    node_ids = overlay.node_ids().tolist()
    if not node_ids:
        return []
    index_of: Dict[int, int] = {node: i for i, node in enumerate(node_ids)}
    adjacency: List[List[int]] = [[] for _ in node_ids]
    for node in node_ids:
        neighbours = [peer for peer in overlay.neighbors(node) if peer in index_of]
        if not neighbours:
            continue
        if reachability is not None:
            sources = np.full(len(neighbours), node, dtype=np.int64)
            targets = np.asarray(neighbours, dtype=np.int64)
            outbound = reachability.blocked_pairs(sources, targets, cycle_index)
            inbound = reachability.blocked_pairs(targets, sources, cycle_index)
            if outbound is not None or inbound is not None:
                blocked = np.zeros(len(neighbours), dtype=bool)
                if outbound is not None:
                    blocked |= outbound
                if inbound is not None:
                    blocked |= inbound
                neighbours = [
                    peer for peer, is_blocked in zip(neighbours, blocked) if not is_blocked
                ]
        row = index_of[node]
        for peer in neighbours:
            column = index_of[peer]
            adjacency[row].append(column)
            adjacency[column].append(row)

    seen = [False] * len(node_ids)
    components: List[List[int]] = []
    for start in range(len(node_ids)):
        if seen[start]:
            continue
        seen[start] = True
        frontier = [start]
        members = []
        while frontier:
            current = frontier.pop()
            members.append(node_ids[current])
            for neighbour in adjacency[current]:
                if not seen[neighbour]:
                    seen[neighbour] = True
                    frontier.append(neighbour)
        components.append(sorted(members))
    components.sort(key=lambda member_ids: (-len(member_ids), member_ids[0]))
    return components


class TestEffectiveComponentsMatchTheSearch:
    @settings(max_examples=40, deadline=None)
    @given(
        size=st.integers(min_value=2, max_value=160),
        cache_size=st.integers(min_value=1, max_value=6),
        fraction=st.floats(min_value=0.05, max_value=0.95),
        cycle=st.integers(min_value=0, max_value=8),
        crashes=st.integers(min_value=0, max_value=10),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_array_newscast_with_and_without_an_outage(
        self, size, cache_size, fraction, cycle, crashes, seed
    ):
        boundary = min(max(int(round(fraction * size)), 1), size - 1)
        # Active for cycles 2..5: the drawn cycle lands on both sides.
        model = PartitionOutageModel(boundary, start_cycle=2, heal_cycle=6)
        rng = RandomSource(seed)
        overlay = VectorizedNewscastOverlay.bootstrap(
            size, cache_size, rng.child("boot"), warmup_cycles=0
        )
        overlay.set_reachability(model)
        # Crashed nodes linger in caches as descriptors outside node_ids().
        for node in rng.child("crash").sample(range(size), min(crashes, size - 1)):
            overlay.on_node_removed(node)
        maintenance = rng.child("rounds")
        for _ in range(3):
            overlay.after_cycle(maintenance)
        for reachability in (model, None):
            assert effective_components(overlay, reachability, cycle) == (
                bfs_effective_components(overlay, reachability, cycle)
            )


class TestComponentLabels:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_labels_are_the_smallest_member_of_each_component(self, seed):
        graph = nx.gnm_random_graph(300, 240, seed=seed)
        edges = np.asarray(graph.edges(), dtype=np.int64).reshape(-1, 2)
        labels = component_labels(300, edges[:, 0], edges[:, 1])
        for component in nx.connected_components(graph):
            assert set(labels[list(component)].tolist()) == {min(component)}

    def test_a_long_path_in_reverse_order_resolves(self):
        size = 5000
        ends = np.arange(size - 1, 0, -1, dtype=np.int64)
        assert not component_labels(size, ends, ends - 1).any()

    def test_no_edges_means_every_vertex_alone(self):
        empty = np.empty(0, dtype=np.int64)
        assert component_labels(4, empty, empty).tolist() == [0, 1, 2, 3]

"""Overlay topologies used by the aggregation experiments.

The paper evaluates its protocol over several static graph families
(random, complete, ring lattice, Watts–Strogatz small worlds and
Barabási–Albert scale-free graphs) and over the dynamic NEWSCAST overlay.
This package provides the static families and the shared
:class:`OverlayProvider` interface; NEWSCAST lives in :mod:`repro.newscast`.
"""

from .base import OverlayProvider, StaticTopology
from .complete import CompleteOverlay, complete_topology
from .generators import TOPOLOGY_KINDS, TopologySpec, build_overlay
from .graph_stats import (
    GraphStatistics,
    clustering_coefficient,
    compute_graph_statistics,
    estimate_average_path_length,
)
from .partitions import (
    effective_component_count,
    effective_components,
    overlay_is_split,
)
from .random_regular import random_k_out_topology
from .replicated import (
    ReplicatedStaticBlock,
    StaticBlockView,
    draw_k_out_peers,
)
from .ring_lattice import ring_lattice_topology
from .scale_free import barabasi_albert_topology
from .watts_strogatz import watts_strogatz_topology

__all__ = [
    "OverlayProvider",
    "StaticTopology",
    "CompleteOverlay",
    "complete_topology",
    "random_k_out_topology",
    "ReplicatedStaticBlock",
    "StaticBlockView",
    "draw_k_out_peers",
    "ring_lattice_topology",
    "watts_strogatz_topology",
    "barabasi_albert_topology",
    "TopologySpec",
    "build_overlay",
    "TOPOLOGY_KINDS",
    "GraphStatistics",
    "compute_graph_statistics",
    "clustering_coefficient",
    "estimate_average_path_length",
    "effective_components",
    "effective_component_count",
    "overlay_is_split",
]

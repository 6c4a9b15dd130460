"""Partition analysis of overlays under reachability constraints.

A correlated outage (see
:class:`~repro.simulator.failures.PartitionOutageModel`) is only
convincing if the *overlay itself* demonstrably splits: during the
outage the NEWSCAST cache graph — with the severed links removed — must
fall apart into disconnected components, and after the heal the
components must gossip themselves back into one.  This module measures
exactly that: the weakly-connected components of an overlay's *effective*
graph, i.e. its neighbour edges minus the pairs a reachability model
currently blocks.

Components come from :func:`component_labels`, array passes instead of
a per-node Python search; ``StaticTopology.is_connected`` and
``connected_components`` are :func:`effective_components` too.

The reachability argument is duck-typed (anything with ``blocked_pairs``
works) so this package never imports :mod:`repro.simulator`, which
imports topology itself.
"""

from __future__ import annotations

from itertools import chain
from typing import List

import numpy as np

from .provider import OverlayProvider

__all__ = [
    "component_labels",
    "effective_components",
    "effective_component_count",
]


def component_labels(size: int, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Connected-component label of every vertex ``0 .. size-1``.

    ``sources`` and ``targets`` are int64 edge endpoints in ``[0, size)``
    (undirected; either direction, repeats allowed).  Each vertex's label
    is the smallest vertex of its component.

    Min-label hooking with pointer jumping: every round hooks the larger
    root of each edge onto the smaller one (``np.minimum.at``), then jumps
    every pointer to its root.  Parents only ever point to smaller ids, so
    the forest never cycles, and the loop ends once every edge joins two
    vertices of one root — which is then its component's minimum.
    """
    parent = np.arange(size, dtype=np.int64)
    while True:
        low = parent[sources]
        high = parent[targets]
        split = low != high
        if not split.any():
            return parent
        low, high = low[split], high[split]
        np.minimum.at(parent, np.maximum(low, high), np.minimum(low, high))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


def effective_components(
    overlay: OverlayProvider,
    reachability=None,
    cycle_index: int = 0,
) -> List[List[int]]:
    """Weakly-connected components of the overlay's effective graph.

    The effective graph contains an (undirected) edge ``{a, b}`` when
    ``b`` is a neighbour of ``a`` and the reachability model blocks the
    exchange in *neither* direction at ``cycle_index`` — a link both ends
    can still use.  With ``reachability=None`` this is the plain
    weakly-connected component decomposition of the overlay.

    Returns the components as sorted id lists, largest first (ties broken
    by smallest member id).
    """
    ids = overlay.node_ids()
    if not ids.size:
        return []
    neighbours = [overlay.neighbors(node) for node in ids.tolist()]
    lengths = np.fromiter(map(len, neighbours), dtype=np.int64, count=ids.size)
    sources = np.repeat(ids, lengths)
    targets = np.fromiter(
        chain.from_iterable(neighbours), dtype=np.int64, count=int(lengths.sum())
    )
    # Dense positions; neighbours outside node_ids (a stale NEWSCAST
    # descriptor of a crashed node) carry no edge.
    position = np.full(int(max(ids.max(), targets.max(initial=0))) + 1, -1, dtype=np.int64)
    position[ids] = np.arange(ids.size, dtype=np.int64)
    known = position[targets] >= 0
    sources, targets = sources[known], targets[known]
    if reachability is not None:
        usable = np.ones(sources.size, dtype=bool)
        for blocked in (
            reachability.blocked_pairs(sources, targets, cycle_index),
            reachability.blocked_pairs(targets, sources, cycle_index),
        ):
            if blocked is not None:
                usable &= ~blocked
        sources, targets = sources[usable], targets[usable]
    labels = component_labels(ids.size, position[sources], position[targets])
    # Group the ids by label, each group ascending, then order the groups.
    order = np.lexsort((ids, labels))
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    components = [group.tolist() for group in np.split(ids[order], cuts)]
    components.sort(key=lambda member_ids: (-len(member_ids), member_ids[0]))
    return components


def effective_component_count(
    overlay: OverlayProvider,
    reachability=None,
    cycle_index: int = 0,
) -> int:
    """Number of weakly-connected components of the effective graph."""
    return len(effective_components(overlay, reachability, cycle_index))

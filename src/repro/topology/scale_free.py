"""Barabási–Albert scale-free graphs (preferential attachment).

The paper tests aggregation over scale-free topologies generated with
preferential attachment: nodes are added one at a time and each new node
wires itself to ``attachment`` existing nodes chosen with probability
proportional to their current degree.  The resulting degree distribution
follows a power law, modelling networks such as Gnutella or the web graph.

Built in the edge-slot form of Batagelj and Brandes (Phys. Rev. E 71,
036113, 2005), as arrays: edge ``e`` owns slots ``2e`` (its new node) and
``2e + 1`` (its target), so a uniform slot is a degree-proportional node.
After the seed clique on ``m + 1`` nodes, each new node's ``m`` targets
copy uniform slots from before its first edge.  Nodes are drawn in
generations of doubling size, each settled before the next copies from
it: copy chains inside a generation resolve by pointer jumping, and
repeated targets redraw until each node has ``m`` distinct ones.  Every
copy thus reads the final target, as in the sequential process, and the
graph has exactly ``m (N - m - 1) + m (m + 1) / 2`` edges.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..common.rng import RandomSource
from ..common.validation import require, require_positive
from .base import StaticTopology
from .replicated import rows_from_edges

__all__ = ["barabasi_albert_topology"]

#: Redraw passes before a node's repeated targets are completed exactly.
_REDRAW_PASSES = 64


def barabasi_albert_topology(
    size: int, attachment: int, rng: RandomSource
) -> StaticTopology:
    """Build a Barabási–Albert graph.

    Parameters
    ----------
    size:
        Final number of nodes.
    attachment:
        Number of edges each newly added node creates (``m`` in the usual
        notation).  The paper's overlays use 20 neighbours; the average
        degree of the generated graph approaches ``2 * attachment``.
    rng:
        Randomness source.
    """
    require_positive(size, "size")
    require_positive(attachment, "attachment")
    require(
        attachment < size,
        f"attachment ({attachment}) must be smaller than size ({size})",
    )
    m = attachment
    generator = rng.generator
    # Seed graph: a clique over the first m + 1 nodes, so every early node
    # has non-zero degree and preferential attachment is well defined.
    clique_low, clique_high = np.triu_indices(m + 1, k=1)
    seed_slots = 2 * clique_low.size
    slots = np.empty(seed_slots + 2 * m * (size - m - 1), dtype=np.int64)
    slots[0:seed_slots:2] = clique_low
    slots[1:seed_slots:2] = clique_high
    slots[seed_slots::2] = np.repeat(np.arange(m + 1, size, dtype=np.int64), m)
    # New nodes attach in generations of doubling size.  A generation
    # copies only from slots before it or inside it, so once settled it
    # is final for every later one.
    first = 0
    while first < size - m - 1:
        last = min(size - m - 1, 2 * first + 1)
        _attach(slots, seed_slots + 2 * m * first, seed_slots + 2 * m * last, m, generator)
        first = last
    neighbours, degrees = rows_from_edges(size, slots[0::2], slots[1::2])
    return StaticTopology.from_rows(
        neighbours, degrees, name=f"scale-free(m={attachment})"
    )


def _attach(
    slots: np.ndarray, start: int, stop: int, m: int, generator: np.random.Generator
) -> None:
    """Fill the target slots of the generation spanning ``slots[start:stop]``.

    Every target copies a uniform slot from before its node's first edge
    (``limits``); a target that repeats an earlier target of its node
    redraws, pass by pass.  Past the redraw passes, each repeat copies a
    uniform earlier slot among those holding a node its row lacks.
    """
    targets = np.arange(start + 1, stop, 2, dtype=np.int64)
    limits = np.repeat(np.arange(start, stop, 2 * m, dtype=np.int64), m)
    source = generator.integers(0, limits)
    for attempt in itertools.count():
        slots[targets] = slots[_resolve(source, start)]
        repeat = _repeats(slots[targets].reshape(-1, m)).reshape(-1)
        if not repeat.any():
            return
        if attempt < _REDRAW_PASSES:
            source[repeat] = generator.integers(0, limits[repeat])
            continue
        for entry in np.flatnonzero(repeat).tolist():
            row = slots[targets[entry - entry % m : entry - entry % m + m]]
            lacking = np.flatnonzero(~np.isin(slots[: limits[entry]], row))
            source[entry] = lacking[generator.integers(0, lacking.size)]
            slots[targets[entry]] = slots[source[entry]]


def _resolve(source: np.ndarray, start: int) -> np.ndarray:
    """The filled slot each target's copy chain ends at.

    A copied slot before ``start``, or an owner slot, is filled.  A
    target copying another target of the same generation takes that
    target's pointer instead — pointer jumping, so a chain of ``L`` links
    resolves in ``log2(L)`` passes.
    """
    at = source.copy()
    todo = np.arange(at.size, dtype=np.int64)
    while todo.size:
        link = at[todo] - start
        todo = todo[(link > 0) & (link % 2 == 1)]
        at[todo] = at[(at[todo] - start) // 2]
    return at


def _repeats(targets: np.ndarray) -> np.ndarray:
    """Mask of the entries that repeat an earlier entry of their row."""
    order = np.argsort(targets, axis=1, kind="stable")
    ordered = np.take_along_axis(targets, order, axis=1)
    repeat = np.zeros(targets.shape, dtype=bool)
    np.put_along_axis(repeat, order[:, 1:], ordered[:, 1:] == ordered[:, :-1], axis=1)
    return repeat

"""Batched per-cycle randomness shared by both cycle engines.

A cycle of the push–pull protocol consumes three kinds of randomness: the
order in which participants initiate, the peer each initiator gossips
with, and the transport fate of every exchange.  This module draws all
three as *batched* generator calls — the peers through the overlay's
``select_peers_batch``, the one peer-sampling method every overlay
offers — and packages them in a :class:`CyclePlan`.

Both the reference :class:`~repro.simulator.cycle_sim.CycleSimulator` and
the stacked array engine (:mod:`repro.simulator.replicated`, for one run
or ``R``) consume their randomness exclusively through
:func:`draw_cycle_plan`, one plan per run, so the two engines see
bit-identical exchange schedules from the same root seed — which is what
makes the fast path an exact drop-in, not merely a statistically
equivalent one.  :func:`stack_cycle_plans` fuses the per-run plans of the
array engine into one block-offset schedule.

The module also provides :func:`ordered_conflict_rounds`, the scheduling
core of the array engine: it partitions a cycle's in-order exchange
list into conflict-free batches that can each be applied with one gather /
merge / scatter pass while preserving the sequential read-after-write
semantics of the reference engine.  Its rank plane is int32 — the rank
templates and the per-node scratch :func:`conflict_scratch` allocates —
which halves the peel's memory traffic; node ids and positions stay
int64.  Two ranks must sum without overflow, so a call takes fewer than
``2**30`` exchanges and raises ``ValueError`` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..common.rng import RandomSource
from ..topology.base import OverlayProvider
from .transport import TransportModel

__all__ = [
    "CyclePlan",
    "StackedCyclePlan",
    "draw_cycle_plan",
    "stack_cycle_plans",
    "ordered_conflict_rounds",
    "conflict_scratch",
]

#: Grow-only rank templates shared by every peel call.  All three
#: templates are prefix-sliceable (the length-k prefix of a larger
#: template equals the template built for k), so one buffer of the
#: largest size seen serves every smaller request as a view — the cache
#: never thrashes even though lossy transports make the effective
#: exchange count vary cycle to cycle.  The arrays are read-only after
#: publication and the cache cell holds one `(size, arrays)` tuple that
#: is built completely *before* being published with a single (atomic
#: under the GIL) assignment, so engines running in threads of one
#: process can never observe a new size paired with stale short arrays.
_PEEL_TEMPLATES: List[Tuple[int, Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]]] = [
    (0, None)
]


def _peel_templates(total: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    size, arrays = _PEEL_TEMPLATES[0]
    if arrays is None or size < total:
        ascending = np.arange(total, dtype=np.int64)
        ranks = np.arange(total, dtype=np.int32)
        arrays = (ascending, ranks + ranks, np.repeat(ranks, 2))
        _PEEL_TEMPLATES[0] = (total, arrays)
        return arrays
    ascending, doubled, ascending_pairs = arrays
    return ascending[:total], doubled[:total], ascending_pairs[: 2 * total]


@dataclass(frozen=True)
class CyclePlan:
    """All random decisions of one cycle, drawn up front.

    Attributes
    ----------
    initiators:
        Participant identifiers in the shuffled initiation order.
    peers:
        The peer drawn for each initiator (aligned with ``initiators``);
        ``-1`` means the overlay had no usable neighbour.
    outcomes:
        Transport fate codes (``OUTCOME_*`` from
        :mod:`repro.simulator.transport`) for each slot.
    """

    initiators: np.ndarray
    peers: np.ndarray
    outcomes: np.ndarray


def draw_cycle_plan(
    overlay: OverlayProvider,
    participants: np.ndarray,
    selection_rng: RandomSource,
    transport: TransportModel,
    transport_rng: RandomSource,
) -> CyclePlan:
    """Draw one cycle's complete randomness from the engine's streams.

    Parameters
    ----------
    overlay:
        The overlay providing peer selection, sampled with one
        ``select_peers_batch`` call over the shuffled initiators.
    participants:
        Sorted array of currently participating node identifiers.
    selection_rng:
        Stream for the shuffle and the peer choices.
    transport:
        The communication failure model.
    transport_rng:
        Stream for the transport outcome draws.
    """
    participants = np.asarray(participants, dtype=np.int64)
    count = participants.size
    permutation = selection_rng.generator.permutation(count)
    initiators = participants[permutation]
    peers = overlay.select_peers_batch(initiators, selection_rng.generator)
    outcomes = transport.classify_exchanges(transport_rng, count)
    return CyclePlan(initiators=initiators, peers=peers, outcomes=outcomes)


@dataclass(frozen=True)
class StackedCyclePlan:
    """``R`` replicas' cycle plans fused into one block-offset schedule.

    Replica ``r``'s exchanges occupy slot range
    ``[bounds[r], bounds[r + 1])`` of the stacked arrays, with node
    identifiers shifted into block-row space (``local + offsets[r]``);
    unusable peers stay ``-1``.  Because the replicas' node ranges are
    disjoint, one :func:`ordered_conflict_rounds` pass over the stacked
    arrays schedules every replica exactly as a per-replica pass would —
    replica ``r``'s exchanges land in the same relative rounds — so the
    merged rounds produce bit-identical states.
    """

    initiators: np.ndarray
    peers: np.ndarray
    outcomes: np.ndarray
    bounds: np.ndarray


def stack_cycle_plans(
    plans: Sequence[CyclePlan], offsets: Sequence[int]
) -> StackedCyclePlan:
    """Fuse per-replica :class:`CyclePlan` objects into one block schedule.

    Parameters
    ----------
    plans:
        One plan per replica, each drawn from that replica's own streams
        via :func:`draw_cycle_plan` (which is what keeps every replica's
        randomness bit-identical to a serial run of the same seed).
    offsets:
        Block-row offset of each replica (``r * stride``).
    """
    if len(plans) == 1 and offsets[0] == 0:
        # A single unshifted plan is already its own block schedule.
        (plan,) = plans
        return StackedCyclePlan(
            initiators=plan.initiators,
            peers=plan.peers,
            outcomes=plan.outcomes,
            bounds=np.array([0, plan.initiators.size], dtype=np.int64),
        )
    counts = [plan.initiators.size for plan in plans]
    bounds = np.zeros(len(plans) + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    total = int(bounds[-1])
    initiators = np.empty(total, dtype=np.int64)
    peers = np.empty(total, dtype=np.int64)
    outcomes = np.empty(total, dtype=np.uint8)
    for replica, plan in enumerate(plans):
        low, high = int(bounds[replica]), int(bounds[replica + 1])
        offset = int(offsets[replica])
        initiators[low:high] = plan.initiators
        initiators[low:high] += offset
        np.copyto(peers[low:high], plan.peers)
        # Shift only the usable peers into block space; -1 stays -1.
        shifted = peers[low:high]
        shifted[shifted >= 0] += offset
        outcomes[low:high] = plan.outcomes
    return StackedCyclePlan(
        initiators=initiators, peers=peers, outcomes=outcomes, bounds=bounds
    )


def conflict_scratch(size: int) -> np.ndarray:
    """Rank scratch for :func:`ordered_conflict_rounds` over ``size`` nodes."""
    return np.empty(size, dtype=np.int32)


def ordered_conflict_rounds(
    initiators: np.ndarray,
    peers: np.ndarray,
    scratch: np.ndarray,
    track_positions: bool = True,
) -> List[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
    """Partition in-order exchanges into conflict-free, order-preserving rounds.

    Exchange ``j`` may read state written by an earlier exchange ``i < j``
    that shares a node with it, so the list cannot simply be applied in
    parallel.  This function repeatedly peels off the exchanges that are
    the *latest remaining* toucher of both their nodes (they form the
    final round, then the one before it, and so on).  Everything scheduled
    together is node-disjoint (safe for one vectorised gather/scatter),
    and any two exchanges sharing a node land in rounds that respect their
    original order.  Node-disjoint exchanges commute, so applying the
    rounds in sequence reproduces the sequential result exactly.

    Parameters
    ----------
    initiators, peers:
        Aligned int64 (or int32) arrays of the effective (state-touching)
        exchanges, in initiation order; the rounds keep their dtype.
    scratch:
        Reusable rank buffer (see :func:`conflict_scratch`) with at least
        ``max(node id) + 1`` entries; its contents are overwritten.
    track_positions:
        Whether to also return each round's indices into the input arrays
        (needed when per-exchange outcome flags must be consulted); skip
        it when every exchange is applied identically.

    Returns
    -------
    A list of ``(initiators, peers, positions)`` triples, one per round;
    ``positions`` is ``None`` when ``track_positions`` is false.  Every
    exchange appears in exactly one round.
    """
    total = int(initiators.size)
    if total == 0:
        return []
    if total >= 1 << 30:
        raise ValueError(f"{total} exchanges exceed the int32 rank plane")
    # The peel runs back to front: a remaining exchange joins the *last*
    # round as soon as no later remaining exchange touches either of its
    # nodes, i.e. both its endpoints' last-occurrence ranks equal its own
    # rank.  Last occurrences come from plain forward "last assignment
    # wins" fancy indexing — no reversed views on the hot path — and the
    # collected rounds are reversed once at the end.  Rank templates are
    # shared by every round (the pair-expanded prefix [0, 0, 1, 1, ...]
    # matches any round size) and cached across calls; one interleave
    # buffer per call serves every round, so the peel's steady state does
    # almost no allocation.
    ascending, doubled, ascending_pairs = _peel_templates(total)
    node_buffer = np.empty(2 * total, dtype=np.result_type(initiators, peers))
    reversed_rounds: List[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]] = []
    a = initiators
    b = peers
    positions: Optional[np.ndarray] = ascending if track_positions else None
    while True:
        count = a.size
        # Only touched entries of the scratch buffer are ever read back.
        nodes = node_buffer[: 2 * count]
        nodes[0::2] = a
        nodes[1::2] = b
        scratch[nodes] = ascending_pairs[: 2 * count]
        # Both last-occurrence ranks are >= the exchange's own rank, so
        # testing the sum replaces two equality tests with one.  Index
        # lists + fancy gathers beat boolean masking several-fold here;
        # on a 1-D mask, .nonzero()[0] is np.flatnonzero without its
        # ravel wrapper.
        schedulable = (scratch[a] + scratch[b]) == doubled[:count]
        chosen = schedulable.nonzero()[0]
        batch_a = a[chosen]
        batch_b = b[chosen]
        reversed_rounds.append(
            (batch_a, batch_b, positions[chosen] if track_positions else None)
        )
        if chosen.size == count:
            reversed_rounds.reverse()
            return reversed_rounds
        keep = (~schedulable).nonzero()[0]
        a = a[keep]
        b = b[keep]
        if track_positions:
            positions = positions[keep]

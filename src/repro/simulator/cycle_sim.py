"""Cycle-driven simulator for epidemic aggregation.

This is the Python equivalent of the PeerSim cycle-based engine the paper
used for its experiments.  Time advances in discrete cycles; in every
cycle

1. the failure model injects crashes / churn (*before* the exchanges, the
   paper's worst case),
2. every participating node, in random order, initiates one push–pull
   exchange with a peer chosen by the overlay, subject to the transport's
   link-failure and message-loss model,
3. the overlay runs its own maintenance (NEWSCAST exchanges), and
4. the empirical mean/variance/min/max of the local estimates are recorded.

The simulator is deliberately agnostic of the aggregation function: it
stores one opaque state per node and delegates the UPDATE step to an
:class:`~repro.core.functions.AggregationFunction`, which is how AVERAGE,
COUNT, multi-instance vectors and the push-sum baseline all run on the
same engine.

Each cycle's randomness (shuffle order, peer choices, transport
outcomes) is drawn up front in batched form through
:func:`~repro.simulator.sampling.draw_cycle_plan` — the same discipline
the stacked array engine uses — so the two engines produce identical
exchange schedules from the same root seed, and even the reference
per-exchange loop spends no time in scalar generator calls.

This engine is the scalar oracle the array engine's parity suites compare
against.  The one product path that runs it is the Section 4.5 ``cost``
figure, which reads :attr:`CycleSimulator.last_cycle_contact_counts`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

import numpy as np

from ..common.errors import ConfigurationError, SimulationError
from ..common.rng import RandomSource
from ..common.validation import require_non_negative_int, require_positive_int
from ..core.functions import AggregationFunction
from ..topology.base import OverlayProvider
from .failures import FailureModel, failure_model_or_default
from .metrics import CycleRecord, SimulationTrace, estimate_statistics
from .replicated import InitialValues, normalise_initial_values
from .sampling import draw_cycle_plan
from .transport import (
    OUTCOME_DROPPED,
    OUTCOME_RESPONSE_LOST,
    PERFECT_TRANSPORT,
    TransportModel,
    apply_reachability,
)

__all__ = ["CycleSimulator"]

ORACLE = "the per-exchange reference engine, which the array engines must match bit for bit"


class CycleSimulator:
    """Run the push–pull aggregation protocol over an overlay, cycle by cycle.

    Parameters
    ----------
    overlay:
        The overlay network providing peer selection (a static topology,
        the complete overlay, or a NEWSCAST instance).
    function:
        The aggregation function defining state initialisation and the
        UPDATE step.
    initial_values:
        Per-node initial values: a mapping from node id to value, a
        sequence of one value per overlay node in id order, or a sequence
        indexed by node id.  Every overlay node must be covered.
    rng:
        Root randomness source; the simulator derives child streams for
        peer selection, transports, failures and overlay maintenance so
        results are reproducible from a single seed.
    transport:
        Communication failure model (default: perfect communication).
    failure_model:
        Node failure/churn model (default: no failures).
    record_every:
        Collect the per-cycle metrics (an O(N) pass over the estimates)
        only every this-many cycles.  The cycle-0 snapshot is always
        recorded, exchange counters accumulate across skipped cycles into
        the next record, and :meth:`run` records the final cycle even when
        it falls between sampling points.
    Notes
    -----
    Asymmetric (push-only) schemes such as
    :class:`~repro.core.functions.PushSumFunction` need no special engine
    support: the asymmetry lives entirely in the function's ``merge``
    result, which returns different states for initiator and responder.
    """

    def __init__(
        self,
        overlay: OverlayProvider,
        function: AggregationFunction,
        initial_values: InitialValues,
        rng: RandomSource,
        transport: TransportModel = PERFECT_TRANSPORT,
        failure_model: Optional[FailureModel] = None,
        record_every: int = 1,
        reachability=None,
    ) -> None:
        require_positive_int(record_every, "record_every")
        self._record_every = record_every
        self._pending_completed = 0
        self._pending_failed = 0
        self._overlay = overlay
        self._function = function
        self._transport = transport
        self._failure_model = failure_model_or_default(failure_model, overlay)
        self._reachability = reachability
        if reachability is not None:
            overlay.set_reachability(reachability)

        self._selection_rng = rng.child("selection")
        self._transport_rng = rng.child("transport")
        self._failure_rng = rng.child("failures")
        self._overlay_rng = rng.child("overlay")
        self._membership_rng = rng.child("membership")

        # The oracle keeps its nodes as Python ints, in the overlay's order.
        node_ids = overlay.node_ids().tolist()
        values = normalise_initial_values(initial_values, node_ids)
        self._states: Dict[int, Any] = {
            node: function.initial_state(values[node]) for node in node_ids
        }
        self._participants = set(node_ids)
        self._crashed: set[int] = set()
        self._next_node_id = max(node_ids) + 1 if node_ids else 0

        self._cycle_index = 0
        self._trace = SimulationTrace()
        self.last_cycle_contact_counts: Dict[int, int] = {}
        self._flush_record()

    # ------------------------------------------------------------------
    # Public accessors
    # ------------------------------------------------------------------
    @property
    def overlay(self) -> OverlayProvider:
        """The overlay network driving peer selection."""
        return self._overlay

    @property
    def function(self) -> AggregationFunction:
        """The aggregation function in use."""
        return self._function

    @property
    def trace(self) -> SimulationTrace:
        """The per-cycle measurement trace collected so far."""
        return self._trace

    @property
    def cycle_index(self) -> int:
        """Number of cycles executed so far."""
        return self._cycle_index

    def participant_ids(self) -> np.ndarray:
        """Identifiers of the nodes participating in the current epoch.

        A sorted int64 array, as on the array engine, so that failure
        models sampling victims from it draw identically on both engines.
        """
        return np.array(sorted(self._participants), dtype=np.int64)

    def is_participant(self, node_id: int) -> bool:
        """Whether ``node_id`` currently takes part in the protocol."""
        return node_id in self._participants

    def state_array(self) -> np.ndarray:
        """The ``(participants, width)`` block of encoded states, in id order.

        The same layout as the array engine's ``state_array``, built from
        the function's ``encode_state`` one participant at a time.
        """
        encode = self._function.encode_state
        participants = sorted(self._participants)
        block = np.empty((len(participants), self._function.state_width()))
        for row, node in enumerate(participants):
            block[row] = encode(self._states[node])
        return block

    # ------------------------------------------------------------------
    # Membership operations (used by failure models and by callers)
    # ------------------------------------------------------------------
    def crash_node(self, node_id: int) -> None:
        """Remove a node: its state becomes permanently inaccessible."""
        if node_id in self._crashed:
            return
        self._states.pop(node_id, None)
        self._participants.discard(node_id)
        self._crashed.add(node_id)
        self._overlay.on_node_removed(node_id)

    def add_node(self) -> int:
        """Add a brand-new node to the overlay and return its identifier.

        Joining nodes wait for the next epoch (the paper's rule): the node
        becomes part of the overlay but refuses aggregation exchanges for
        the rest of this run (the
        :class:`~repro.simulator.epochs.EpochDriver` admits it to the next
        epoch's engine).
        """
        node_id = self._next_node_id
        self._next_node_id += 1
        self._overlay.on_node_added(node_id, self._membership_rng)
        return node_id

    def override_values(self, node_ids: Sequence[int], values: Any) -> None:
        """Re-assert local values at selected participants, mid-epoch.

        ``values`` is an array-like of shape ``(n,)`` (scalar functions)
        or ``(n, components)`` (vector functions), aligned with
        ``node_ids``.  States are rebuilt through the function's
        ``initial_state`` codec — the per-node form of the batched
        scatter the vectorised engine performs, so the two engines stay
        bit-identical.  This is the hook byzantine reporter models use to
        inject forged values each cycle.  Every id and value is checked
        before any state changes, so a rejected call leaves all states as
        they were.
        """
        array = np.asarray(values, dtype=np.float64)
        if array.ndim == 1:
            array = array.reshape(-1, 1)
        if array.shape[0] != len(node_ids):
            raise ConfigurationError(
                f"override_values got {len(node_ids)} nodes but "
                f"{array.shape[0]} value rows"
            )
        nodes = [int(node_id) for node_id in node_ids]
        for node in nodes:
            if node not in self._participants:
                raise SimulationError(f"node {node} is not participating")
        initial_state = self._function.initial_state
        forged = [
            initial_state(float(row[0]) if row.size == 1 else tuple(row.tolist()))
            for row in array
        ]
        self._states.update(zip(nodes, forged))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_cycle(self) -> Optional[CycleRecord]:
        """Execute one full cycle and return its measurement record.

        Returns ``None`` on cycles skipped by ``record_every``.
        """
        self._cycle_index += 1
        self._failure_model.apply(self, self._cycle_index, self._failure_rng)

        completed = 0
        failed = 0
        contact_counts: Dict[int, int] = {node: 0 for node in self._participants}
        self.last_cycle_contact_counts = contact_counts

        participants = np.fromiter(
            sorted(self._participants), dtype=np.int64, count=len(self._participants)
        )
        plan = draw_cycle_plan(
            self._overlay,
            participants,
            self._selection_rng,
            self._transport,
            self._transport_rng,
        )
        apply_reachability(
            self._reachability, plan.initiators, plan.peers, plan.outcomes,
            self._cycle_index,
        )
        states = self._states
        merge = self._function.merge
        # Python-int lists: the loop below does dict and set lookups per
        # exchange, which are several times slower on numpy scalars.
        plan_initiators = plan.initiators.tolist()
        plan_peers = plan.peers.tolist()
        plan_outcomes = plan.outcomes.tolist()
        for position, initiator in enumerate(plan_initiators):
            if initiator not in self._participants:
                # The node crashed earlier in this very cycle (reentrant
                # callers may remove nodes mid-list).
                continue
            peer = plan_peers[position]
            if peer < 0 or peer not in self._participants:
                # No usable neighbour, a crashed peer (timeout), or a
                # freshly joined node refusing exchanges this epoch.
                failed += 1
                continue
            outcome = plan_outcomes[position]
            if outcome == OUTCOME_DROPPED:
                failed += 1
                continue
            new_initiator, new_responder = merge(states[initiator], states[peer])
            if outcome == OUTCOME_RESPONSE_LOST:
                # The responder already updated; the initiator never saw
                # the reply and keeps its old state.
                states[peer] = new_responder
                failed += 1
            else:
                states[initiator] = new_initiator
                states[peer] = new_responder
                completed += 1
            contact_counts[initiator] += 1
            contact_counts[peer] += 1

        self._overlay.after_cycle(self._overlay_rng)
        self._pending_completed += completed
        self._pending_failed += failed
        if self._cycle_index % self._record_every == 0:
            return self._flush_record()
        return None

    def run(self, cycles: int) -> SimulationTrace:
        """Run ``cycles`` consecutive cycles and return the trace.

        With ``record_every > 1`` the final executed cycle is always
        recorded, so ``trace.final`` reflects the end of the run.
        """
        require_non_negative_int(cycles, "cycles")
        for _ in range(cycles):
            self.run_cycle()
        if self._trace.final.cycle != self._cycle_index:
            self._flush_record()
        return self._trace

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _flush_record(self) -> CycleRecord:
        # The scalar estimate of every node, in state order (None becomes
        # NaN), reduced by the eq. (1) statistics every engine records.
        estimate = self._function.estimate
        estimates = np.array(
            [estimate(state) for state in self._states.values()], dtype=np.float64
        )
        mean, variance, minimum, maximum = estimate_statistics(estimates)
        record = CycleRecord(
            cycle=self._cycle_index,
            participant_count=len(self._participants),
            mean=mean,
            variance=variance,
            minimum=minimum,
            maximum=maximum,
            completed_exchanges=self._pending_completed,
            failed_exchanges=self._pending_failed,
        )
        self._pending_completed = 0
        self._pending_failed = 0
        self._trace.add(record)
        return record

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CycleSimulator(function={self._function.name}, "
            f"participants={len(self._participants)}, cycle={self._cycle_index})"
        )

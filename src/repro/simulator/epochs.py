"""Epoch orchestration: the paper's *practical protocol*, end to end.

The building blocks live in :mod:`repro.core` — epoch timing
(:class:`~repro.core.epoch.EpochConfig`), multi-leader self-election
(:class:`~repro.core.count.LeaderElection`) and the map-based COUNT
(:class:`~repro.core.count.CountArrayFunction`).  The
:class:`EpochDriver` drives them through consecutive epochs of the
size-monitoring protocol of Sections 4.1/4.3/5.  Every epoch runs on the
array engine, :class:`~repro.simulator.vectorized.VectorizedCycleSimulator`
(the class attribute ``_simulator``; a subclass that sets it to the
reference :class:`~repro.simulator.cycle_sim.CycleSimulator` runs the same
epoch body one exchange at a time):

1. **Epoch synchronisation.**  Every node's epoch identifier lives in
   one per-node vector, and one batched array pass applies the epidemic
   rule: advance only forward, count fresh joiners and multi-epoch
   jumps.  Nodes that joined mid-epoch through churn participate from
   the next epoch on, matching the paper's rule.
2. **Leader election.**  At every epoch start each alive node elects
   itself with ``P_lead = C / N̂``: the driver opens the epoch on its
   :class:`~repro.core.count.AdaptiveCount` ledger, which draws
   :meth:`~repro.core.count.LeaderElection.elect_batch` on the epoch's
   ``"election"`` child stream.
3. **The epoch run.**  γ cycles (``cycles_per_epoch``, derivable from a
   target accuracy through :func:`epoch_config_for_accuracy`) of the
   epoch's :class:`~repro.core.count.CountArrayFunction`: dict states on
   the reference engine, a dense ``(participants, 2·leaders)`` block on
   the vectorised engine, one row per node that started the epoch however
   many ids churn has issued — the merges are bit-identical, so both
   engines hold the same maps from the same seed.  An epoch nobody led is
   the same run over zero leaders (width-0 rows), so overlay maintenance,
   churn and crashes advance exactly as in a populated epoch.
4. **End-of-epoch reduction, feedback and carry-forward.**  Every
   surviving node's row is reported to the ledger (the array engine hands
   over its own block, compacted, rather than a copy), which owns the
   rest of Section 5's loop: the trimmed-mean reduction of Section 7.3,
   feeding a finite estimate back into the election, and carrying the
   previous estimate across a dry epoch (zero leaders, or every map
   diverged).
   The ledger's :class:`~repro.core.count.CountEpochRecord`, plus the
   synchronisation counts, is the epoch's :class:`EpochRecord`.

Epoch identifiers follow the nominal schedule of
:class:`~repro.core.epoch.EpochConfig`: executing an epoch advances the
clock by γ·δ, and the next identifier is ``epoch_for_time`` of the new
clock, so configurations with ``epoch_length`` shorter than γ·δ skip
identifiers exactly as the paper's epidemic synchronisation allows — the
driver records how many nodes jumped more than one epoch at once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.theory import PUSH_PULL_CONVERGENCE_FACTOR
from ..common.errors import SimulationError
from ..common.rng import RandomSource
from ..common.validation import require, require_non_negative_int, require_positive_int
from ..core.count import AdaptiveCount, CountEpochRecord, LeaderElection
from ..core.epoch import EpochConfig, cycles_for_accuracy
from ..topology.base import OverlayProvider
from .failures import FailureModel
from .transport import PERFECT_TRANSPORT, TransportModel
from .vectorized import VectorizedCycleSimulator

__all__ = [
    "EpochRecord",
    "EpochedRunResult",
    "EpochDriver",
    "epoch_config_for_accuracy",
]

#: Per-epoch failure injection: a shared stateless model, or a factory
#: called with the epoch identifier to build a fresh model per epoch
#: (needed by models with per-run state such as ``SuddenDeathModel``).
FailureFactory = Union[FailureModel, Callable[[int], Optional[FailureModel]], None]


def epoch_config_for_accuracy(
    accuracy: float,
    convergence_factor: float = PUSH_PULL_CONVERGENCE_FACTOR,
    cycle_length: float = 1.0,
    epoch_length: Optional[float] = None,
) -> EpochConfig:
    """Build an :class:`EpochConfig` whose γ meets a target accuracy.

    Applies the rule of Section 4.5 through
    :func:`~repro.core.epoch.cycles_for_accuracy`: γ cycles shrink the
    expected variance to ``accuracy`` times the initial one given the
    overlay's per-cycle ``convergence_factor`` (default: the ``1/(2√e)``
    of sufficiently random overlays).
    """
    return EpochConfig(
        cycle_length=cycle_length,
        cycles_per_epoch=cycles_for_accuracy(accuracy, convergence_factor),
        epoch_length=epoch_length,
    )


@dataclass
class EpochRecord(CountEpochRecord):
    """One cycle-engine epoch: the Section 5 record plus sync counts.

    Every node reports once, at the epoch's end, so ``reporters`` counts
    the nodes that survived it and ``jump_reporters`` is always 0.
    """

    #: Nodes synchronised into their *first* epoch here (fresh joiners).
    joined_count: int = 0
    #: Previously participating nodes that advanced to this epoch.
    advanced_count: int = 0
    #: Nodes that jumped more than one epoch forward in this pass.
    skipped_sync_count: int = 0

    @property
    def participant_count(self) -> int:
        """Alive nodes that started the epoch."""
        return self.joined_count + self.advanced_count


@dataclass
class EpochedRunResult:
    """Trace of a multi-epoch adaptive COUNT run."""

    config: EpochConfig
    concurrent_target: float
    initial_estimate: float
    records: List[EpochRecord] = field(default_factory=list)

    @property
    def final_estimate(self) -> float:
        """The size estimate after the last executed epoch."""
        if not self.records:
            return self.initial_estimate
        return self.records[-1].size_estimate


class EpochDriver:
    """Run the adaptive multi-epoch COUNT protocol over a persistent overlay.

    Parameters
    ----------
    overlay:
        The overlay network; it persists across epochs, so NEWSCAST cache
        state and membership churn carry over exactly as they would in a
        long-running deployment.
    election:
        The :class:`~repro.core.count.LeaderElection` holding ``C`` and
        the running size estimate ``N̂`` (mutated by the feedback loop).
    epoch_config:
        Timing parameters (γ, δ, Δ); see :func:`epoch_config_for_accuracy`.
    rng:
        Root randomness; epoch ``e`` uses the child streams
        ``rng.child("election", e)`` and ``rng.child("epoch", e)``, so
        either cycle engine draws identically from one seed.
    transport / failure_factory:
        Communication and node-failure models applied within every epoch;
        ``failure_factory`` may be a shared stateless model or a callable
        receiving the epoch id (for models with per-run state).
    record_every:
        Per-cycle metrics cadence inside each epoch.
    """

    #: The cycle engine every epoch runs on.
    _simulator = VectorizedCycleSimulator

    def __init__(
        self,
        overlay: OverlayProvider,
        election: LeaderElection,
        epoch_config: EpochConfig,
        rng: RandomSource,
        transport: TransportModel = PERFECT_TRANSPORT,
        failure_factory: FailureFactory = None,
        record_every: int = 1,
    ) -> None:
        require(
            failure_factory is None
            or isinstance(failure_factory, FailureModel)
            or callable(failure_factory),
            "failure_factory must be a FailureModel, a callable or None, "
            f"got {failure_factory!r}",
        )
        require_positive_int(record_every, "record_every")
        self._overlay = overlay
        self._count = AdaptiveCount(election)
        self._config = epoch_config
        self._rng = rng
        self._transport = transport
        self._failure_factory = failure_factory
        self._record_every = record_every

        self._time = 0.0
        self._next_epoch_id = 0
        # Epoch-synchronisation state: each node's epoch id, -1 for none.
        self._node_epochs = np.full(0, -1, dtype=np.int64)
        self._result = EpochedRunResult(
            config=epoch_config,
            concurrent_target=election.concurrent_target,
            initial_estimate=election.estimated_size,
        )

    # ------------------------------------------------------------------
    # Public accessors
    # ------------------------------------------------------------------
    @property
    def overlay(self) -> OverlayProvider:
        """The overlay shared by every epoch."""
        return self._overlay

    @property
    def election(self) -> LeaderElection:
        """The leader election carrying the adaptive size estimate."""
        return self._count.election

    @property
    def result(self) -> EpochedRunResult:
        """The trace accumulated so far (grows as epochs execute)."""
        return self._result

    def node_epoch_ids(self) -> Dict[int, int]:
        """Current per-node epoch membership."""
        known = np.flatnonzero(self._node_epochs >= 0)
        return {int(node): int(self._node_epochs[node]) for node in known}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, epochs: int) -> EpochedRunResult:
        """Execute ``epochs`` consecutive epochs and return the trace."""
        require_non_negative_int(epochs, "epochs")
        for _ in range(epochs):
            self._run_epoch()
        return self._result

    def _run_epoch(self) -> EpochRecord:
        epoch_id = self._next_epoch_id
        alive = np.sort(self._overlay.node_ids())
        if not alive.size:
            raise SimulationError(
                f"no nodes left alive at the start of epoch {epoch_id}"
            )
        joined, advanced, skipped = self._synchronise(epoch_id, alive)

        function = self._count.open_epoch(
            epoch_id, alive, self._rng.child("election", epoch_id)
        )
        simulator = self._simulator(
            overlay=self._overlay,
            function=function,
            initial_values=function.leader_values(alive),
            rng=self._rng.child("epoch", epoch_id),
            transport=self._transport,
            failure_model=self._build_failure_model(epoch_id),
            record_every=self._record_every,
        )
        cycles = self._config.cycles_per_epoch
        simulator.run(cycles)
        # The array engine hands its own state block over rather than
        # copying it, so the report adds only the reduction's row blocks.
        if isinstance(simulator, VectorizedCycleSimulator):
            rows = simulator._release_state_array()
        else:
            rows = simulator.state_array()
        record = EpochRecord(
            **asdict(self._count.report(epoch_id, self._count.estimate_rows(epoch_id, rows))),
            joined_count=joined,
            advanced_count=advanced,
            skipped_sync_count=skipped,
        )
        self._result.records.append(record)

        # Advance the nominal clock by the epoch's γ·δ and derive the next
        # identifier from the schedule; a Δ shorter than γ·δ makes ids
        # skip, which the next synchronisation pass observes as jumps.
        self._time += cycles * self._config.cycle_length
        self._next_epoch_id = max(
            epoch_id + 1, self._config.epoch_for_time(self._time)
        )
        return record

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _synchronise(
        self, epoch_id: int, alive: Sequence[int]
    ) -> Tuple[int, int, int]:
        """Bring every alive node into ``epoch_id``; count the sync events.

        Returns ``(joined, advanced, skipped)``: nodes entering their
        first epoch, nodes advancing from an earlier one, and nodes that
        jumped more than one epoch at once.
        """
        # The epidemic rule as one array pass: advance forward only and
        # classify fresh joiners (-1 sentinel) vs multi-epoch jumps.
        ids = np.asarray(alive, dtype=np.int64)
        highest = int(ids[-1])
        if highest >= self._node_epochs.size:
            grown = np.full(highest + 1, -1, dtype=np.int64)
            grown[: self._node_epochs.size] = self._node_epochs
            self._node_epochs = grown
        # Forget crashed nodes; crashed identifiers are never reused.
        alive_mask = np.zeros(self._node_epochs.size, dtype=bool)
        alive_mask[ids] = True
        self._node_epochs[~alive_mask] = -1
        previous = self._node_epochs[ids]
        fresh = previous < 0
        joined = int(np.count_nonzero(fresh))
        advanced = int(ids.size - joined)
        skipped = int(np.count_nonzero(~fresh & (epoch_id - previous > 1)))
        self._node_epochs[ids] = epoch_id
        return joined, advanced, skipped

    def _build_failure_model(self, epoch_id: int) -> Optional[FailureModel]:
        factory = self._failure_factory
        if factory is None or isinstance(factory, FailureModel):
            return factory
        return factory(epoch_id)

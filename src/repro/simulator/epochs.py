"""Epoch orchestration: the paper's *practical protocol*, end to end.

The building blocks live in :mod:`repro.core` — epoch timing
(:class:`~repro.core.epoch.EpochConfig`), multi-leader self-election
(:class:`~repro.core.count.LeaderElection`) and the map-based COUNT
(:class:`~repro.core.count.CountArrayFunction`).  The
:class:`EpochDriver` drives them through consecutive epochs of the
size-monitoring protocol of Sections 4.1/4.3/5.  Its epoch body is one
and the same on both cycle engines; ``engine`` only names the cycle
simulator each epoch runs on:

1. **Epoch synchronisation.**  Every node's epoch identifier lives in
   one per-node vector, and one batched array pass applies the epidemic
   rule: advance only forward, count fresh joiners and multi-epoch
   jumps.  Nodes that joined mid-epoch through churn participate from
   the next epoch on, matching the paper's rule.
2. **Leader election.**  At every epoch start each alive node elects
   itself with ``P_lead = C / N̂`` via
   :meth:`~repro.core.count.LeaderElection.elect_batch` (bit-identical
   to the scalar loop, one generator call).
3. **The epoch run.**  γ cycles (``cycles_per_epoch``, derivable from a
   target accuracy through :func:`epoch_config_for_accuracy`) of
   :class:`~repro.core.count.CountArrayFunction` over the epoch's
   leaders: dict states on the reference engine, a dense
   ``(nodes, 2·leaders)`` block on the vectorised engine — the merges are
   bit-identical, so both engines hold the same maps from the same seed.
4. **End-of-epoch reduction.**  Every surviving node reduces its map
   with the trimmed-mean rule of Section 7.3: the simulator's
   ``state_array()`` goes through the batched
   :func:`~repro.core.count.count_estimates_from_matrix`, so the
   per-epoch size estimates are bit-identical across engines.
5. **Feedback.**  The epoch's estimate is fed back into the election
   (``update_estimate``), closing the adaptive loop.  An epoch that
   reports nothing — no leader elected itself, or every map diverged —
   carries the previous estimate forward deterministically and is
   recorded as *dry* in the trace.

Epoch identifiers follow the nominal schedule of
:class:`~repro.core.epoch.EpochConfig`: executing an epoch advances the
clock by γ·δ, and the next identifier is ``epoch_for_time`` of the new
clock, so configurations with ``epoch_length`` shorter than γ·δ skip
identifiers exactly as the paper's epidemic synchronisation allows — the
driver records how many nodes jumped more than one epoch at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.theory import PUSH_PULL_CONVERGENCE_FACTOR
from ..common.errors import ConfigurationError, SimulationError
from ..common.rng import RandomSource
from ..common.validation import require, require_non_negative_int, require_positive_int
from ..core.count import CountArrayFunction, LeaderElection, count_estimates_from_matrix
from ..core.epoch import EpochConfig, cycles_for_accuracy
from ..core.functions import AverageFunction
from ..topology.base import OverlayProvider
from .failures import FailureModel
from .metrics import estimate_statistics
from .transport import PERFECT_TRANSPORT, TransportModel

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


@dataclass(frozen=True)
class EpochRecord:
    """Everything one epoch contributed to the adaptive run's trace.

    Attributes
    ----------
    epoch_id:
        The epoch identifier (may skip values when ``epoch_length`` is
        shorter than γ·δ).
    leader_count:
        Number of nodes that elected themselves for this epoch.
    lead_probability:
        The ``P_lead`` the election used (``C / N̂`` capped at 1).
    participant_count:
        Alive nodes that started the epoch.
    joined_count:
        Nodes synchronised into their *first* epoch here (fresh joiners).
    advanced_count:
        Previously participating nodes that advanced to this epoch.
    skipped_sync_count:
        Nodes that jumped more than one epoch forward in this
        synchronisation pass.
    cycles:
        γ — cycles executed within the epoch.
    dry:
        Whether the epoch reported nothing (zero leaders, or no node held
        a finite estimate) and the previous estimate was carried forward.
    raw_estimate:
        The size estimate this epoch's own reduction produced (``None``
        on dry epochs).
    size_estimate:
        The estimate adopted after the epoch — ``raw_estimate``, or the
        carried-forward previous estimate on dry epochs.
    min_estimate / max_estimate:
        Extremes of the finite per-node size estimates (NaN when dry).
    finite_reporters:
        Number of surviving nodes whose reduced estimate was finite.
    """

    epoch_id: int
    leader_count: int
    lead_probability: float
    participant_count: int
    joined_count: int
    advanced_count: int
    skipped_sync_count: int
    cycles: int
    dry: bool
    raw_estimate: Optional[float]
    size_estimate: float
    min_estimate: float
    max_estimate: float
    finite_reporters: int


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

    def estimates(self) -> List[float]:
        """Adopted size estimate after each epoch, in execution order."""
        return [record.size_estimate for record in self.records]

    def dry_epochs(self) -> List[int]:
        """Identifiers of epochs that reported nothing."""
        return [record.epoch_id for record in self.records if record.dry]

    def sync_summary(self) -> Dict[str, int]:
        """Aggregate epidemic-synchronisation counters over the whole run."""
        return {
            "joined": sum(record.joined_count for record in self.records),
            "advanced": sum(record.advanced_count for record in self.records),
            "skipped": sum(record.skipped_sync_count for record in self.records),
        }


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
        ``rng.child("election", e)`` and ``rng.child("epoch", e)``, so the
        two engines draw identically from one seed.
    transport / failure_factory:
        Communication and node-failure models applied within every epoch;
        ``failure_factory`` may be a shared stateless model or a callable
        receiving the epoch id (for models with per-run state).
    engine:
        The cycle simulator every epoch runs on, named by the caller:
        ``"vectorized"`` (default, array COUNT rows) or ``"reference"``
        (dict COUNT maps, one exchange at a time).  It picks nothing
        else; every overlay supports both.
    record_every:
        Per-cycle metrics cadence inside each epoch.
    """

    def __init__(
        self,
        overlay: OverlayProvider,
        election: LeaderElection,
        epoch_config: EpochConfig,
        rng: RandomSource,
        transport: TransportModel = PERFECT_TRANSPORT,
        failure_factory: FailureFactory = None,
        engine: str = "vectorized",
        record_every: int = 1,
    ) -> None:
        if engine not in ("vectorized", "reference"):
            raise ConfigurationError(
                f"engine must be 'vectorized' or 'reference', got {engine!r}"
            )
        require(
            failure_factory is None
            or isinstance(failure_factory, FailureModel)
            or callable(failure_factory),
            "failure_factory must be a FailureModel, a callable or None, "
            f"got {failure_factory!r}",
        )
        require_positive_int(record_every, "record_every")
        self._overlay = overlay
        self._election = election
        self._config = epoch_config
        self._rng = rng
        self._transport = transport
        self._failure_factory = failure_factory
        self._engine = engine
        self._record_every = record_every

        self._time = 0.0
        self._next_epoch_id = 0
        self._estimate = election.estimated_size
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
    def engine(self) -> str:
        """Which cycle engine the driver runs epochs on."""
        return self._engine

    @property
    def overlay(self) -> OverlayProvider:
        """The overlay shared by every epoch."""
        return self._overlay

    @property
    def election(self) -> LeaderElection:
        """The leader election carrying the adaptive size estimate."""
        return self._election

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
        alive = sorted(self._overlay.node_ids())
        if not alive:
            raise SimulationError(
                f"no nodes left alive at the start of epoch {epoch_id}"
            )
        joined, advanced, skipped = self._synchronise(epoch_id, alive)

        leaders = self._election.elect_batch(
            alive, self._rng.child("election", epoch_id)
        )
        lead_probability = self._election.lead_probability
        epoch_rng = self._rng.child("epoch", epoch_id)
        failure_model = self._build_failure_model(epoch_id)
        cycles = self._config.cycles_per_epoch

        if leaders.size:
            function = CountArrayFunction(leaders)
            leader_set = set(function.leaders)
            values = {
                node: (float(node) if node in leader_set else -1.0) for node in alive
            }
        else:
            # Zero-leader epoch: every map stays empty, so nodes gossip no
            # COUNT information — modelled by a zero placeholder state so
            # overlay maintenance, churn and crashes still advance exactly
            # as in a populated epoch.
            function, values = AverageFunction(), {node: 0.0 for node in alive}
        simulator = self._build_simulator(function, values, epoch_rng, failure_model)
        simulator.run(cycles)
        per_node = self._reduce_epoch(simulator) if leaders.size else np.empty(0)

        mean, _, minimum, maximum = estimate_statistics(per_node)
        finite_reporters = int(np.count_nonzero(np.isfinite(per_node)))
        if finite_reporters:
            raw_estimate: Optional[float] = mean
            self._estimate = raw_estimate
            self._election.update_estimate(raw_estimate)
        else:
            # Dry epoch: carry the previous estimate forward and leave the
            # election untouched, deterministically.
            raw_estimate = None

        record = EpochRecord(
            epoch_id=epoch_id,
            leader_count=int(leaders.size),
            lead_probability=lead_probability,
            participant_count=len(alive),
            joined_count=joined,
            advanced_count=advanced,
            skipped_sync_count=skipped,
            cycles=cycles,
            dry=raw_estimate is None,
            raw_estimate=raw_estimate,
            size_estimate=self._estimate,
            min_estimate=minimum,
            max_estimate=maximum,
            finite_reporters=finite_reporters,
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

    def _build_simulator(
        self,
        function,
        initial_values,
        epoch_rng: RandomSource,
        failure_model: Optional[FailureModel],
    ):
        # Deferred import: this module is loaded by the package init
        # before make_simulator is defined.
        from . import make_simulator

        return make_simulator(
            overlay=self._overlay,
            function=function,
            initial_values=initial_values,
            rng=epoch_rng,
            transport=self._transport,
            failure_model=failure_model,
            record_every=self._record_every,
            engine=self._engine,
        )

    def _reduce_epoch(self, simulator) -> np.ndarray:
        """Per-surviving-node size estimates: every map through the batched reduction."""
        block = simulator.state_array()
        width = len(simulator.function.leaders)
        return count_estimates_from_matrix(block[:, :width], block[:, width:])

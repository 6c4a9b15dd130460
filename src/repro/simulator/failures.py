"""Node-level failure injection for the cycle-driven simulator.

The paper studies several dynamism scenarios; each has a corresponding
failure model here.  A failure model is invoked once at the beginning of
every cycle (the paper's worst case: crashes remove values exactly when
the variance among estimates is largest) and manipulates the simulator
through its public ``crash_node`` / ``add_node`` API.

* :class:`ProportionalCrashModel` — a fixed proportion ``P_f`` of the
  currently participating nodes crashes before every cycle (Section 6.1,
  Figure 5).
* :class:`SuddenDeathModel` — a given fraction of nodes crashes all at
  once at one specific cycle (Figure 6a).
* :class:`ChurnModel` — a constant number of nodes is replaced by brand
  new nodes each cycle; the size stays constant but the composition
  changes and the newcomers refuse to participate in the running epoch
  (Figure 6b and 8a).
* :class:`CountCrashModel` — an absolute number of crashes per cycle.

Beyond the paper's i.i.d. benign failures, this module also provides one
*correlated connectivity failure*: :class:`PartitionOutageModel`, a
:class:`ReachabilityModel` that removes no nodes but severs pairs of live
nodes for a window of cycles, expressed through the transport outcome
codes via :func:`~repro.simulator.transport.apply_reachability`.
Byzantine value forgery lives in :mod:`repro.simulator.adversarial`.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from ..common.errors import ConfigurationError
from ..common.rng import RandomSource
from ..common.validation import (
    require,
    require_non_negative_int,
    require_positive,
    require_positive_int,
    require_probability,
)
from ..topology.provider import OverlayProvider, require_joins

__all__ = [
    "FailureModel",
    "NoFailures",
    "failure_model_or_default",
    "ProportionalCrashModel",
    "SuddenDeathModel",
    "ChurnModel",
    "CountCrashModel",
    "ReachabilityModel",
    "PartitionOutageModel",
]


class FailureModel(abc.ABC):
    """Interface invoked by the simulator at the beginning of every cycle."""

    @abc.abstractmethod
    def apply(self, simulator, cycle_index: int, rng: RandomSource) -> None:
        """Inject failures for the cycle about to run.

        Parameters
        ----------
        simulator:
            The running :class:`~repro.simulator.cycle_sim.CycleSimulator`.
        cycle_index:
            The 1-based index of the cycle about to execute.
        rng:
            Randomness source dedicated to failure injection.
        """


class NoFailures(FailureModel):
    """The benign scenario: nobody crashes, nobody joins."""

    def apply(self, simulator, cycle_index: int, rng: RandomSource) -> None:
        return None


def failure_model_or_default(
    model: Optional[FailureModel], overlay: OverlayProvider
) -> FailureModel:
    """``model`` itself, or :class:`NoFailures` for ``None``.

    Anything else is refused here, at engine construction, rather than on
    the first cycle; so is a :class:`ChurnModel` that adds nodes to an
    ``overlay`` with fixed membership (every static one).
    """
    if model is None:
        return NoFailures()
    if not isinstance(model, FailureModel):
        raise ConfigurationError(
            f"failure_model must be a FailureModel or None, got {model!r}"
        )
    if isinstance(model, ChurnModel) and model.replacements_per_cycle > 0:
        require_joins(overlay, f"ChurnModel({model.replacements_per_cycle})")
    return model


def _crash_sampled(simulator, participants: np.ndarray, count: int, rng: RandomSource) -> None:
    """Crash ``count`` distinct participants drawn from the sorted id array.

    ``participants[rng.sample_indices(n, count)]`` is the one generator
    call :meth:`RandomSource.sample` makes, without a Python list of every
    participant.
    """
    for victim in participants[rng.sample_indices(participants.size, count)].tolist():
        simulator.crash_node(victim)


class ProportionalCrashModel(FailureModel):
    """Crash a fixed proportion of the live participants before each cycle.

    Parameters
    ----------
    crash_probability:
        ``P_f``: the fraction of currently participating nodes removed at
        the start of every cycle.
    """

    def __init__(self, crash_probability: float) -> None:
        require_probability(crash_probability, "crash_probability")
        self.crash_probability = crash_probability

    def apply(self, simulator, cycle_index: int, rng: RandomSource) -> None:
        participants = simulator.participant_ids()
        count = int(round(self.crash_probability * participants.size))
        if count <= 0:
            return
        _crash_sampled(simulator, participants, min(count, participants.size), rng)


class SuddenDeathModel(FailureModel):
    """Crash a large fraction of the network all at once at a given cycle.

    Parameters
    ----------
    fraction:
        Fraction of the participating nodes that crashes.
    at_cycle:
        The 1-based cycle index right before which the crash happens.
    """

    def __init__(self, fraction: float, at_cycle: int) -> None:
        require_probability(fraction, "fraction")
        # Cycle indices are 1-based (`apply` sees cycle_index >= 1), so
        # at_cycle=0 would be accepted and then silently never fire.
        require_positive_int(at_cycle, "at_cycle (a 1-based cycle index)")
        self.fraction = fraction
        self.at_cycle = at_cycle

    def apply(self, simulator, cycle_index: int, rng: RandomSource) -> None:
        if cycle_index != self.at_cycle:
            return
        participants = simulator.participant_ids()
        count = int(round(self.fraction * participants.size))
        _crash_sampled(simulator, participants, min(count, participants.size), rng)


class ChurnModel(FailureModel):
    """Replace a constant number of participants with fresh nodes each cycle.

    The replacements keep the network size constant while its composition
    changes, so the overlay must take joins: NEWSCAST does, and a static
    overlay is refused at engine construction.  New nodes join the overlay
    immediately but — following the paper's epoch rule — do not
    participate in the running epoch; they refuse aggregation exchanges,
    which behaves like additional link failure for the nodes that try to
    contact them.

    Parameters
    ----------
    replacements_per_cycle:
        How many nodes are substituted before every cycle.
    """

    def __init__(self, replacements_per_cycle: int) -> None:
        require_non_negative_int(replacements_per_cycle, "replacements_per_cycle")
        self.replacements_per_cycle = replacements_per_cycle

    def apply(self, simulator, cycle_index: int, rng: RandomSource) -> None:
        if self.replacements_per_cycle <= 0:
            return
        participants = simulator.participant_ids()
        count = min(self.replacements_per_cycle, participants.size)
        _crash_sampled(simulator, participants, count, rng)
        for _ in range(count):
            simulator.add_node()


class CountCrashModel(FailureModel):
    """Crash an absolute number of participating nodes before each cycle.

    Used by the multiple-instances experiment (Figure 8a: "1000 nodes crash
    at the beginning of each cycle").
    """

    def __init__(self, crashes_per_cycle: int) -> None:
        require_non_negative_int(crashes_per_cycle, "crashes_per_cycle")
        self.crashes_per_cycle = crashes_per_cycle

    def apply(self, simulator, cycle_index: int, rng: RandomSource) -> None:
        if self.crashes_per_cycle <= 0:
            return
        participants = simulator.participant_ids()
        _crash_sampled(simulator, participants, min(self.crashes_per_cycle, participants.size), rng)


# ----------------------------------------------------------------------
# Correlated connectivity failures (reachability models)
# ----------------------------------------------------------------------
class ReachabilityModel(abc.ABC):
    """Deterministic pairwise connectivity constraints.

    Unlike :class:`FailureModel`, a reachability model never removes
    nodes: it decides, pair by pair, whether the *initiator* of an
    exchange can currently reach its *peer*.  Blocked exchanges behave
    exactly like a failed link — the engines rewrite their transport
    outcome to ``DROPPED`` through
    :func:`~repro.simulator.transport.apply_reachability` — and NEWSCAST
    overlays consult the same model during membership maintenance, which
    is what makes a partition visibly split the overlay itself.

    Reachability may be asymmetric: ``blocked(a → b)`` says nothing about
    ``blocked(b → a)``.
    """

    @abc.abstractmethod
    def blocked_pairs(
        self, initiators: np.ndarray, peers: np.ndarray, cycle_index: int
    ) -> Optional[np.ndarray]:
        """Boolean mask of blocked ``initiator → peer`` pairs.

        Returns ``None`` when nothing is blocked this cycle (the common
        fast-path answer outside outage windows).  ``peers`` may contain
        ``-1`` placeholders; callers discard those slots themselves.
        """

    # reach: oracle — one pair's verdict, which tests compare with blocked_pairs
    def blocks(self, initiator: int, peer: int, cycle_index: int) -> bool:
        """Scalar convenience form of :meth:`blocked_pairs`."""
        mask = self.blocked_pairs(
            np.asarray([initiator], dtype=np.int64),
            np.asarray([peer], dtype=np.int64),
            cycle_index,
        )
        return bool(mask is not None and mask[0])


class PartitionOutageModel(ReachabilityModel):
    """A correlated outage severing one region of the id space for a while.

    Models a rack or region losing connectivity: during cycles
    ``start_cycle <= c < heal_cycle`` every exchange crossing the id
    boundary (nodes ``< boundary`` on one side, ``>= boundary`` on the
    other) is blocked in both directions; outside the window the model is
    inert.  The id-space split matches how the experiment layer assigns
    contiguous ids, so ``boundary = N // 2`` cuts the network in half.
    """

    def __init__(self, boundary: int, start_cycle: int, heal_cycle: int) -> None:
        require_positive(boundary, "boundary")
        require(
            start_cycle >= 1,
            f"start_cycle is a 1-based cycle index and must be >= 1, "
            f"got {start_cycle!r}",
        )
        require(
            heal_cycle > start_cycle,
            f"heal_cycle must be after start_cycle "
            f"({start_cycle}), got {heal_cycle!r}",
        )
        self.boundary = int(boundary)
        self.start_cycle = int(start_cycle)
        self.heal_cycle = int(heal_cycle)

    @classmethod
    def split(
        cls, size: int, fraction: float, start_cycle: int, heal_cycle: int
    ) -> "PartitionOutageModel":
        """Partition off the lowest ``fraction`` of an ``N``-node id space.

        ``round(fraction * size)`` must leave at least one node on each
        side; a split that would sever nobody is rejected, not clamped.
        """
        require_positive(size, "size")
        require_probability(fraction, "fraction")
        boundary = int(round(fraction * size))
        require(
            1 <= boundary <= size - 1,
            f"a {fraction!r} split of {size} nodes puts {boundary} on the low "
            f"side; each side needs at least one node",
        )
        return cls(boundary, start_cycle, heal_cycle)

    def is_active(self, cycle_index: int) -> bool:
        """Whether the outage is severing traffic at ``cycle_index``."""
        return self.start_cycle <= cycle_index < self.heal_cycle

    def blocked_pairs(
        self, initiators: np.ndarray, peers: np.ndarray, cycle_index: int
    ) -> Optional[np.ndarray]:
        if not self.is_active(cycle_index):
            return None
        return (initiators < self.boundary) != (peers < self.boundary)

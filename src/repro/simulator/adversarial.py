"""Byzantine reporter models: adversarial value injection.

The paper's robustness analysis (Section 7) covers *benign* failures —
crashes, churn, message loss — and explicitly flags that COUNT "can be
attacked easily by malicious nodes" reporting forged values.  This module
makes that scenario expressible on every engine.

A byzantine reporter is a node that participates in the protocol normally
(it gossips, merges, answers exchanges) but re-asserts a forged local
value at the start of every cycle, overwriting whatever state the honest
dynamics gave it.  Because the forgery happens at cycle granularity it is
implemented as a *batched value-override pass*: the model computes one
``(byzantine, instances)`` matrix of forged values and hands it to the
engine's ``override_values`` method — one scatter on the array engine, a
per-node loop through the identical state codec on the reference engine.  The colluding set is drawn once from the sorted
participant list, so the reference and vectorised engines recruit the
same nodes from the same seed and stay bit-identical — honest nodes and
forged nodes alike.

Strategies
----------
``constant``
    Every byzantine node reports ``lie_value`` in every instance, every
    cycle.  With ``lie_value = 0`` this is the *value inflation* attack
    on COUNT: the forged zeros keep swallowing conserved mass, the global
    average drifts towards 0 and the size estimate ``1 / avg`` explodes.
    Large ``lie_value`` (e.g. claiming a leader's mass of 1 in every
    instance) is the mirror-image *deflation* attack.
``targeted``
    The colluders coordinate on a fixed minority of the concurrent
    instances (the first ``ceil(instance_fraction * t)`` components) and
    forge ``lie_value`` there while behaving honestly in the rest.  This
    is the attack the median-of-instances reducer defends against: the
    corrupted instances are outliers the median discards, while a trimmed
    mean (or a single-instance COUNT) is dragged along.
``stuck``
    A stuck-at sensor: the node re-asserts the value it held when it was
    recruited, forever.  Harmless to conservation on its own but the
    node stops contributing information.
``drift``
    A drifting sensor: the recruitment-time value plus
    ``drift_per_cycle`` per elapsed cycle, modelling slow calibration
    loss that poisons the average without ever looking like an outlier.

The value-reading strategies (``targeted``, ``stuck``, ``drift``) require
a state codec where the raw state *is* the reported value —
:class:`~repro.core.functions.AverageFunction` and vectors thereof, which
covers AVERAGE and every COUNT variant used by the figures.  ``constant``
works with any function whose ``initial_state`` accepts plain floats.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..common.rng import RandomSource
from ..common.validation import require, require_probability
from ..core.functions import VectorFunction
from .failures import FailureModel

__all__ = [
    "BYZANTINE_STRATEGIES",
    "ByzantineReporterModel",
    "targeted_instance_attack",
]


#: Forgery strategies understood by :class:`ByzantineReporterModel`.
BYZANTINE_STRATEGIES = ("constant", "targeted", "stuck", "drift")


class ByzantineReporterModel(FailureModel):
    """A colluding fraction of nodes that injects forged values every cycle.

    Parameters
    ----------
    fraction:
        Fraction of the initial participants recruited as byzantine
        (``round(fraction * N)`` nodes, drawn uniformly without
        replacement from the sorted participant list at the first cycle).
    strategy:
        One of :data:`BYZANTINE_STRATEGIES`; see the module docstring.
    lie_value:
        The forged value asserted by ``constant`` and ``targeted``.
    drift_per_cycle:
        Additive per-cycle drift used by the ``drift`` strategy.
    instance_fraction:
        Fraction of the concurrent instances the ``targeted`` colluders
        corrupt (at least one instance; the paper's median defence holds
        while this stays below one half).
    """

    def __init__(
        self,
        fraction: float,
        strategy: str = "constant",
        lie_value: float = 0.0,
        drift_per_cycle: float = 0.0,
        instance_fraction: float = 0.4,
    ) -> None:
        require_probability(fraction, "fraction")
        require(
            strategy in BYZANTINE_STRATEGIES,
            f"strategy must be one of {BYZANTINE_STRATEGIES}, got {strategy!r}",
        )
        require_probability(instance_fraction, "instance_fraction")
        require(
            instance_fraction > 0.0,
            f"instance_fraction must be positive, got {instance_fraction!r}",
        )
        self._fraction = float(fraction)
        self._strategy = strategy
        self._lie_value = float(lie_value)
        self._drift_per_cycle = float(drift_per_cycle)
        self._instance_fraction = float(instance_fraction)
        self._recruited: Optional[np.ndarray] = None
        self._recruit_cycle = 0
        self._stuck_rows: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Introspection (used by figures to measure the honest population)
    # ------------------------------------------------------------------
    @property
    def fraction(self) -> float:
        """The recruited fraction of the initial participants."""
        return self._fraction

    @property
    def strategy(self) -> str:
        """The lie strategy, one of :data:`BYZANTINE_STRATEGIES`."""
        return self._strategy

    @property
    def lie_value(self) -> float:
        """The asserted value of the ``constant``/``targeted`` strategies."""
        return self._lie_value

    @property
    def byzantine_ids(self) -> List[int]:
        """The recruited node identifiers (empty before the first cycle)."""
        if self._recruited is None:
            return []
        return [int(node) for node in self._recruited]

    def honest_ids(self, simulator) -> List[int]:
        """Current participants that are not byzantine."""
        recruited = set(self.byzantine_ids)
        return [node for node in simulator.participant_ids() if node not in recruited]

    # ------------------------------------------------------------------
    # FailureModel interface
    # ------------------------------------------------------------------
    def apply(self, simulator, cycle_index: int, rng: RandomSource) -> None:
        if self._recruited is None:
            self._recruit(simulator, cycle_index, rng)
        assert self._recruited is not None
        present_mask = np.fromiter(
            (simulator.is_participant(int(node)) for node in self._recruited),
            dtype=bool,
            count=self._recruited.size,
        )
        present = self._recruited[present_mask]
        if present.size == 0:
            return
        if self._strategy == "constant":
            rows = np.full(
                (present.size, self._component_count(simulator)), self._lie_value
            )
        elif self._strategy == "targeted":
            rows = self._current_rows(simulator, present)
            attacked = max(1, int(np.ceil(self._instance_fraction * rows.shape[1])))
            rows[:, :attacked] = self._lie_value
        else:  # stuck / drift
            assert self._stuck_rows is not None
            rows = self._stuck_rows[present_mask].copy()
            if self._strategy == "drift":
                rows += self._drift_per_cycle * (cycle_index - self._recruit_cycle)
        simulator.override_values(present, rows)

    def describe(self) -> str:
        return (
            f"byzantine reporters: fraction {self._fraction}, "
            f"strategy {self._strategy}, lie {self._lie_value}"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _recruit(self, simulator, cycle_index: int, rng: RandomSource) -> None:
        # participant_ids() is sorted on every engine, and the draw comes
        # from a named child of the engine's failure stream — so the
        # reference and vectorised engines recruit the same colluders.
        participants = simulator.participant_ids()
        count = int(self._fraction * len(participants) + 0.5)
        recruited = sorted(rng.child("byzantine-recruit").sample(participants, count))
        self._recruited = np.asarray(recruited, dtype=np.int64)
        self._recruit_cycle = int(cycle_index)
        if self._strategy in ("stuck", "drift") and self._recruited.size:
            self._stuck_rows = self._current_rows(simulator, self._recruited)

    def _component_count(self, simulator) -> int:
        function = simulator.function
        if isinstance(function, VectorFunction):
            return len(function)
        return 1

    def _current_rows(self, simulator, ids: np.ndarray) -> np.ndarray:
        """Read the current reported values of ``ids`` as a 2-D block.

        Every engine answers ``state_array`` in participant-id order, and
        for value-reporting codecs the encoded row is the value itself.
        """
        participants = np.asarray(simulator.participant_ids(), dtype=np.int64)
        rows = simulator.state_array()[np.searchsorted(participants, ids)]
        return rows.reshape(ids.size, -1)


def targeted_instance_attack(
    fraction: float,
    instance_fraction: float = 0.4,
    lie_value: float = 0.0,
) -> ByzantineReporterModel:
    """Colluders corrupting a fixed minority of the concurrent instances.

    The corrupted instances are ruined outliers; whether the final size
    estimate survives depends entirely on the reducer — see
    :func:`~repro.core.instances.reduce_size_estimates`.
    """
    return ByzantineReporterModel(
        fraction,
        strategy="targeted",
        lie_value=lie_value,
        instance_fraction=instance_fraction,
    )

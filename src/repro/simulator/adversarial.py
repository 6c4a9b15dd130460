"""Byzantine reporters: the targeted instance attack on multi-instance COUNT.

The paper's robustness analysis (Section 7) covers *benign* failures —
crashes, churn, message loss — and explicitly flags that COUNT "can be
attacked easily by malicious nodes" reporting forged values.  This module
makes that scenario expressible on every engine.

A byzantine reporter is a node that participates in the protocol normally
(it gossips, merges, answers exchanges) but re-asserts a forged local
value at the start of every cycle, overwriting whatever state the honest
dynamics gave it.  The colluders coordinate on a fixed minority of the
concurrent instances — the first ``ceil(instance_fraction * t)``
components — and report 0 there while behaving honestly in the rest.  The
forged zeros keep swallowing conserved mass, so the attacked instances
become ruined outliers: the median of the instances' sizes
(:func:`~repro.core.instances.median_size_estimates`) discards them,
while a trimmed mean (or a single-instance COUNT) is dragged along.  On a
one-component state (plain AVERAGE or single-instance COUNT) every
component is attacked, so each byzantine node simply reports 0.

Because the forgery happens at cycle granularity it is implemented as a
*batched value-override pass*: the model builds one
``(byzantine, instances)`` matrix of forged values and hands it to the
engine's ``override_values`` method — one scatter on the array engine, a
per-node loop through the identical state codec on the reference engine.
The colluding set is drawn once from the sorted participant list, so the
reference and vectorised engines recruit the same nodes from the same
seed and stay bit-identical — honest nodes and forged nodes alike.

The attack reads the honest components back from the encoded state, so it
needs a codec where the raw state *is* the reported value:
:class:`~repro.core.functions.AverageFunction` and vectors thereof, which
covers AVERAGE and every multi-instance COUNT the figures run.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..common.rng import RandomSource
from ..common.validation import require, require_probability
from .failures import FailureModel

__all__ = ["ByzantineReporterModel"]


class ByzantineReporterModel(FailureModel):
    """A colluding fraction of nodes zeroing a minority of the instances.

    Parameters
    ----------
    fraction:
        Fraction of the initial participants recruited as byzantine
        (``round(fraction * N)`` nodes, drawn uniformly without
        replacement from the sorted participant list at the first cycle).
    instance_fraction:
        Fraction of the concurrent instances the colluders corrupt (at
        least one instance; the median defence holds while this stays
        below one half).
    """

    def __init__(self, fraction: float, instance_fraction: float = 0.4) -> None:
        require_probability(fraction, "fraction")
        require_probability(instance_fraction, "instance_fraction")
        require(
            instance_fraction > 0.0,
            f"instance_fraction must be positive, got {instance_fraction!r}",
        )
        self._fraction = float(fraction)
        self._instance_fraction = float(instance_fraction)
        self._recruited: Optional[np.ndarray] = None

    @property
    def byzantine_ids(self) -> List[int]:
        """The recruited node identifiers (empty before the first cycle)."""
        if self._recruited is None:
            return []
        return [int(node) for node in self._recruited]

    # ------------------------------------------------------------------
    # FailureModel interface
    # ------------------------------------------------------------------
    def apply(self, simulator, cycle_index: int, rng: RandomSource) -> None:
        participants = simulator.participant_ids()
        if self._recruited is None:
            # participant_ids() is sorted on every engine, and the draw
            # comes from a named child of the engine's failure stream — so
            # the reference and vectorised engines recruit the same nodes.
            count = int(self._fraction * participants.size + 0.5)
            picks = rng.child("byzantine-recruit").sample_indices(participants.size, count)
            self._recruited = np.sort(participants[picks])
        present = self._recruited[np.isin(self._recruited, participants, assume_unique=True)]
        if present.size == 0:
            return
        # Every engine answers state_array in participant-id order, and
        # for value-reporting codecs the encoded row is the value itself.
        rows = simulator.state_array()[np.searchsorted(participants, present)]
        rows = rows.reshape(present.size, -1)
        attacked = max(1, int(np.ceil(self._instance_fraction * rows.shape[1])))
        rows[:, :attacked] = 0.0
        simulator.override_values(present, rows)

"""Single-run entry point of the stacked array engine.

:class:`VectorizedCycleSimulator` is a drop-in for
:class:`~repro.simulator.cycle_sim.CycleSimulator` that runs every
aggregation function through its array codec (see
:class:`~repro.core.functions.AggregationFunction`).  It holds no state of
its own: it is the :class:`~repro.simulator.replicated.ReplicaView` of a
one-replica :class:`~repro.simulator.replicated.StackedCycleEngine`, so the
cycle pipeline, the state tensor and the whole simulator surface are the
ones :mod:`repro.simulator.replicated` defines for ``R`` stacked runs.

A run from a given root seed produces the same exchange schedule and the
same node states as the reference engine — traces agree to within
floating-point summation order.  It is
:data:`~repro.simulator.make_simulator`, the library's single-run engine,
and runs on every overlay.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..common.rng import RandomSource
from ..core.functions import AggregationFunction, state_row_blocks
from ..topology.base import OverlayProvider
from .failures import FailureModel
from .metrics import CycleRecord, SimulationTrace
from .replicated import (
    InitialValues,
    ReplicaConfig,
    ReplicaView,
    StackedCycleEngine,
    apply_merge_rounds,
    effective_exchange_filter,
)
from .transport import PERFECT_TRANSPORT, TransportModel

# The two kernels are re-exported: this module is their established
# import path, though they now live beside the engine that calls them.
__all__ = [
    "VectorizedCycleSimulator",
    "effective_exchange_filter",
    "apply_merge_rounds",
]


class VectorizedCycleSimulator(ReplicaView):
    """Array-native cycle engine.

    Accepts the same constructor arguments as
    :class:`~repro.simulator.cycle_sim.CycleSimulator` and exposes the same
    public API (trace, membership operations, state accessors), so failure
    models, experiment plumbing and tests can treat the two engines
    interchangeably.
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
        config = ReplicaConfig(overlay, initial_values, rng, failure_model)
        super().__init__(
            StackedCycleEngine(
                [config], function, transport, record_every, reachability
            ),
            0,
        )

    def run_cycle(self) -> Optional[CycleRecord]:
        """Execute one full cycle and return its measurement record.

        Returns ``None`` on cycles skipped by ``record_every``.
        """
        # The failure model acts on this very object.
        return self.trace.final if self._engine.step((self,)) else None

    def run(self, cycles: int) -> SimulationTrace:
        """Run ``cycles`` consecutive cycles and return the trace.

        With ``record_every > 1`` the final executed cycle is always
        recorded, so ``trace.final`` reflects the end of the run.
        """
        self._engine.run_cycles(self.run_cycle, cycles)
        return self.trace

    def _release_state_array(self) -> np.ndarray:
        """:meth:`state_array` without the copy, ending the run.

        Moves the participants' rows to the front of the engine's state
        block in place, a row block at a time (rows ascend, so a move never
        overwrites a row still to be read), and returns that prefix: a
        run's last read then costs no second block.  The simulator must
        not be used afterwards.
        """
        engine = self._engine
        rows = engine._live_rows(0)
        states = engine._states
        if rows.size < engine._replicas[0].members:
            for block in state_row_blocks(rows.size, engine._width):
                states[block] = states[rows[block]]
        self._engine = None
        return states[: rows.size]

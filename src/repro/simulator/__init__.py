"""Simulation substrates: cycle engines, the asynchronous engine, failures.

Two cycle engines are provided, and both run every aggregation function:
the reference :class:`~repro.simulator.cycle_sim.CycleSimulator`, the
per-exchange oracle driving the scalar codec, and the stacked array engine
of :mod:`repro.simulator.replicated` driving the array codec.  The array
engine has two entry points —
:class:`~repro.simulator.vectorized.VectorizedCycleSimulator` for one run
and :class:`~repro.simulator.replicated.ReplicatedCycleSimulator` for ``R``
repetitions in one tensor.  :data:`make_simulator` is the array engine's
established name, ``VectorizedCycleSimulator`` itself; a caller that wants
the reference engine constructs ``CycleSimulator`` with the same
arguments.  Every overlay answers the same batched peer draw, so both
engines run on every overlay.  The practical
protocol runs on the cycle engines through
:class:`~repro.simulator.epochs.EpochDriver` and on an asynchronous
network through the windowed
:class:`~repro.simulator.async_engine.AsyncPracticalSimulator`; both
drive Section 5's adaptive loop through one ledger,
:class:`~repro.core.count.AdaptiveCount`, where an epoch nobody led is a
zero-leader epoch with width-0 rows.

The cycle engines share one failure surface: the paper's crash, sudden
death and churn models, a partition outage
(:class:`~repro.simulator.failures.PartitionOutageModel`) and byzantine
reporters (:mod:`repro.simulator.adversarial`).  The asynchronous engine
takes benign latency, loss, drift and churn from one
:class:`~repro.simulator.asynchrony.AsynchronyScenario`, its ``scenario``.
"""

from .async_engine import (
    AsyncAverageProtocol,
    AsyncCountProtocol,
    AsyncPracticalSimulator,
    AsyncProtocol,
    build_async_average,
    build_async_count,
)
from .asynchrony import AsynchronyScenario
from .adversarial import ByzantineReporterModel
from .cycle_sim import CycleSimulator
from .epochs import EpochDriver, EpochRecord, EpochedRunResult
from .failures import (
    ChurnModel,
    CountCrashModel,
    FailureModel,
    NoFailures,
    PartitionOutageModel,
    ProportionalCrashModel,
    ReachabilityModel,
    SuddenDeathModel,
)
from .metrics import CycleRecord, SimulationTrace
from .replicated import ReplicaConfig, ReplicatedCycleSimulator, ReplicaView
from .sampling import (
    CyclePlan,
    StackedCyclePlan,
    draw_cycle_plan,
    ordered_conflict_rounds,
    stack_cycle_plans,
)
from .transport import (
    PERFECT_TRANSPORT,
    DelayModel,
    TransportModel,
    apply_reachability,
)
from .vectorized import VectorizedCycleSimulator

__all__ = [
    "CycleSimulator",
    "VectorizedCycleSimulator",
    "ReplicatedCycleSimulator",
    "ReplicaConfig",
    "ReplicaView",
    "AsyncPracticalSimulator",
    "AsyncProtocol",
    "AsyncAverageProtocol",
    "AsyncCountProtocol",
    "AsynchronyScenario",
    "build_async_average",
    "build_async_count",
    "EpochDriver",
    "EpochRecord",
    "EpochedRunResult",
    "make_simulator",
    "FailureModel",
    "NoFailures",
    "ProportionalCrashModel",
    "SuddenDeathModel",
    "ChurnModel",
    "CountCrashModel",
    "ReachabilityModel",
    "PartitionOutageModel",
    "ByzantineReporterModel",
    "apply_reachability",
    "CycleRecord",
    "SimulationTrace",
    "CyclePlan",
    "StackedCyclePlan",
    "draw_cycle_plan",
    "stack_cycle_plans",
    "ordered_conflict_rounds",
    "TransportModel",
    "DelayModel",
    "PERFECT_TRANSPORT",
]


#: The array engine under its established name (same arguments as
#: ``CycleSimulator``, the reference engine).
make_simulator = VectorizedCycleSimulator

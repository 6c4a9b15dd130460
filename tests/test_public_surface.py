"""The settable surface: every front door's parameters, pinned in one table.

Each entry names a public function, constructor or configuration record
and the exact parameter (or field) names it accepts, in order.  A new
option, or a retired one, therefore shows up as a reviewed edit of
:data:`SURFACE` rather than slipping in through a signature.  The three
accepted-value registries — the ``params`` keys per topology kind, the
latency distributions and the aggregate names — are pinned the same way,
and so are the run surface of the two cycle engines (:data:`RUN_SURFACE`)
and the practical protocol's moving parts (:data:`PROTOCOL_SURFACE`,
:data:`EPOCH_RECORD_FIELDS`).
"""

import dataclasses
import inspect

import pytest

from repro.common.rng import RandomSource
from repro.core import AverageFunction, aggregate
from repro.core.count import (
    AdaptiveCount,
    CountEpochRecord,
    LeaderElection,
    count_estimate_from_map,
    count_estimates_from_matrix,
    peak_initial_values,
)
from repro.core.epoch import EpochConfig
from repro.core.instances import (
    MultiInstanceCount,
    median_size_estimates,
    trimmed_size_estimates,
)
from repro.core.protocol import AGGREGATES
from repro.experiments.runner import (
    RunPlan,
    repeat_simulations,
    repeat_traces,
    run_async_count,
    run_epoched_count,
    uniform_initial_values,
)
from repro.simulator import (
    AsyncCountProtocol,
    AsyncPracticalSimulator,
    AsyncProtocol,
    AsynchronyScenario,
    ByzantineReporterModel,
    ChurnModel,
    CountCrashModel,
    CycleSimulator,
    DelayModel,
    EpochDriver,
    EpochRecord,
    NoFailures,
    PartitionOutageModel,
    ProportionalCrashModel,
    ReplicatedCycleSimulator,
    SuddenDeathModel,
    TransportModel,
    VectorizedCycleSimulator,
    build_async_average,
    build_async_count,
    make_simulator,
)
from repro.simulator.transport import DELAY_DISTRIBUTIONS
from repro.topology.complete import complete_topology
from repro.topology.generators import _PARAM_KEYS

CYCLE_ENGINE = (
    "overlay", "function", "initial_values", "rng", "transport", "failure_model",
    "record_every", "reachability",
)

#: Front door -> the names a caller can set, in signature (or field) order.
SURFACE = {
    # Cycle engines (``make_simulator`` is ``VectorizedCycleSimulator``)
    CycleSimulator: CYCLE_ENGINE,
    VectorizedCycleSimulator: CYCLE_ENGINE,
    ReplicatedCycleSimulator: ("replicas", "function", "transport", "record_every"),
    # Repeats and the practical protocol
    repeat_simulations: ("repeats", "seed", "make_run", "plan"),
    repeat_traces: ("repeats", "seed", "make_run", "plan"),
    RunPlan: (
        "topology", "size", "cycles", "values", "function_factory", "transport",
        "failure_factory", "record_every", "collect",
    ),
    EpochDriver: (
        "overlay", "election", "epoch_config", "rng", "transport", "failure_factory",
        "record_every",
    ),
    EpochConfig: ("cycle_length", "cycles_per_epoch", "epoch_length"),
    run_epoched_count: (
        "topology", "size", "epochs", "rng", "concurrent_target", "initial_estimate",
        "epoch_config", "transport", "failure_factory", "record_every",
    ),
    # The asynchronous engine
    run_async_count: (
        "topology", "size", "epochs", "rng", "scenario", "concurrent_target",
        "initial_estimate", "epoch_config", "record_every",
    ),
    build_async_average: (
        "overlay", "values", "rng", "scenario", "epoch_config", "record_every",
    ),
    build_async_count: (
        "overlay", "rng", "scenario", "epoch_config", "concurrent_target",
        "initial_estimate", "record_every",
    ),
    AsyncPracticalSimulator: (
        "overlay", "protocol", "epoch_config", "rng", "scenario", "record_every",
    ),
    AsynchronyScenario: (
        "name", "latency", "min_delay", "max_delay", "latency_sigma", "timeout",
        "clock_drift", "message_loss", "churn_per_window",
    ),
    DelayModel: ("min_delay", "max_delay", "timeout", "distribution", "sigma"),
    TransportModel: ("link_failure_probability", "message_loss_probability"),
    # Failure models
    NoFailures: (),
    ProportionalCrashModel: ("crash_probability",),
    SuddenDeathModel: ("fraction", "at_cycle"),
    ChurnModel: ("replacements_per_cycle",),
    CountCrashModel: ("crashes_per_cycle",),
    PartitionOutageModel: ("boundary", "start_cycle", "heal_cycle"),
    ByzantineReporterModel: ("fraction", "instance_fraction"),
    # COUNT and its reductions
    MultiInstanceCount: ("function", "initial_values", "leaders"),
    MultiInstanceCount.create: ("node_ids", "instance_count", "rng"),
    trimmed_size_estimates: ("state_block",),
    median_size_estimates: ("state_block",),
    count_estimate_from_map: ("state",),
    count_estimates_from_matrix: ("values", "mask"),
    peak_initial_values: ("size", "peak_value"),
    uniform_initial_values: ("size", "rng"),
    complete_topology: ("size",),
    # The one-call entry point
    aggregate: (
        "values", "aggregate", "topology", "cycles", "seed", "transport", "failure_model",
    ),
}

#: Cycle engine -> the public attributes a run is read and driven through.
#: The two engines carry one surface; only the reference engine adds
#: ``last_cycle_contact_counts``, which the cost figure reads.
RUN_ACCESSORS = (
    "overlay", "function", "trace", "cycle_index", "participant_ids",
    "is_participant", "state_array", "crash_node", "add_node", "override_values",
    "run", "run_cycle",
)
RUN_SURFACE = {
    CycleSimulator: RUN_ACCESSORS + ("last_cycle_contact_counts",),
    VectorizedCycleSimulator: RUN_ACCESSORS,
}

#: Records configured through dataclass fields rather than a hand-written
#: constructor; their fields are the surface.
RECORDS = (RunPlan, EpochConfig, AsynchronyScenario, DelayModel, TransportModel)


def settable_names(door):
    if door in RECORDS:
        return tuple(field.name for field in dataclasses.fields(door))
    return tuple(inspect.signature(door).parameters)


@pytest.mark.parametrize("door", list(SURFACE), ids=lambda door: door.__qualname__)
def test_front_door_parameters(door):
    assert settable_names(door) == SURFACE[door]


def test_make_simulator_is_the_array_engine():
    assert make_simulator is VectorizedCycleSimulator


def test_records_are_dataclasses():
    assert all(dataclasses.is_dataclass(record) for record in RECORDS)


def test_topology_params_keys():
    assert _PARAM_KEYS == {"newscast": ("vectorized",)}


def test_latency_distributions():
    assert DELAY_DISTRIBUTIONS == ("uniform", "lognormal")


def test_aggregate_names():
    assert tuple(AGGREGATES) == (
        "average", "count", "sum", "product", "variance", "min", "max", "geometric-mean",
    )


@pytest.mark.parametrize("engine", list(RUN_SURFACE), ids=lambda engine: engine.__name__)
def test_run_surface(engine):
    # An instance, so attributes set in __init__ count too.
    simulator = engine(complete_topology(3), AverageFunction(), [0.0, 1.0, 2.0], RandomSource(1))
    public = {name for name in dir(simulator) if not name.startswith("_")}
    assert public == set(RUN_SURFACE[engine])


def test_engines_share_one_run_surface():
    reference, vectorized = (set(RUN_SURFACE[engine]) for engine in RUN_SURFACE)
    assert reference ^ vectorized == {"last_cycle_contact_counts"}


#: The practical protocol's public names: the adapter contract the async
#: engine drives, the Section 5 ledger both practical-protocol engines run
#: on, and the async COUNT adapter, which is that ledger plus two hooks.
ASYNC_PROTOCOL = ("begin_epoch", "codec", "enter_rows", "estimate_rows", "merge_rows", "report")
LEDGER = ("codec", "election", "epoch_records", "estimate_rows", "open_epoch", "report")
PROTOCOL_SURFACE = {
    AsyncProtocol: ASYNC_PROTOCOL,
    AdaptiveCount: LEDGER,
    AsyncCountProtocol: tuple(sorted(set(ASYNC_PROTOCOL) | set(LEDGER))),
}

#: The one Section 5 epoch record, and the cycle driver's, which adds only
#: its synchronisation counts.
COUNT_RECORD_FIELDS = (
    "epoch_id", "leader_count", "lead_probability", "reporters", "jump_reporters",
    "finite_reporters", "estimate_sum", "min_estimate", "max_estimate", "size_estimate",
)
EPOCH_RECORD_FIELDS = {
    CountEpochRecord: COUNT_RECORD_FIELDS,
    EpochRecord: COUNT_RECORD_FIELDS + ("joined_count", "advanced_count", "skipped_sync_count"),
}


@pytest.mark.parametrize("part", list(PROTOCOL_SURFACE), ids=lambda part: part.__name__)
def test_protocol_surface(part):
    # An instance where one can be built, so attributes set in __init__ count.
    subject = part
    if part is not AsyncProtocol:
        subject = part(LeaderElection(concurrent_target=1.0, estimated_size=10.0))
    public = {name for name in dir(subject) if not name.startswith("_")}
    assert public == set(PROTOCOL_SURFACE[part])


@pytest.mark.parametrize("record", list(EPOCH_RECORD_FIELDS), ids=lambda record: record.__name__)
def test_epoch_record_fields(record):
    assert tuple(field.name for field in dataclasses.fields(record)) == EPOCH_RECORD_FIELDS[record]

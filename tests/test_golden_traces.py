"""Golden digests of engine-level traces.

Each test runs one small, seeded configuration on one engine path and
compares a sha256 of its records with a committed value, so any change to
a random stream (draw order, a new child stream, a different reduction)
shows up as a failing digest instead of a changelog sentence.  Floats
enter at 10 significant digits, which is stable across platforms and
NumPy versions while still catching every real stream change.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.common.rng import RandomSource
from repro.core.count import LeaderElection
from repro.core.epoch import EpochConfig
from repro.core.functions import AverageFunction
from repro.experiments.runner import RunPlan, repeat_traces, uniform_initial_values
from repro.simulator import (
    ChurnModel,
    CountCrashModel,
    CycleSimulator,
    EpochDriver,
    TransportModel,
    VectorizedCycleSimulator,
    build_async_count,
    make_simulator,
)
from repro.simulator.asynchrony import HOSTILE
from repro.topology import TopologySpec, build_overlay

SEED = 2004
SIZE = 60
CYCLES = 10
RANDOM_6 = TopologySpec("random", degree=6)
NEWSCAST_10 = TopologySpec("newscast", degree=10)
TEN_PERCENT_LOSS = TransportModel(message_loss_probability=0.1)


class ReferenceEpochDriver(EpochDriver):
    """The epoch driver with every epoch on the reference engine."""

    _simulator = CycleSimulator


def records_digest(records):
    """sha256 of dataclass records, floats at 10 significant digits.

    Every field enters, in field order.
    """

    def cell(value):
        if isinstance(value, (float, np.floating)):
            return format(float(value), ".10g")
        return str(value)

    flat = [
        [field.name, cell(getattr(record, field.name))]
        for record in records
        for field in dataclasses.fields(record)
    ]
    return hashlib.sha256(json.dumps(flat).encode()).hexdigest()


#: Seed 2004; N=60 and 10 cycles unless a test says otherwise.  The two
#: epoch digests hash ``CountEpochRecord`` fields (plus the driver's sync
#: counts), so a record schema change moves them too.
GOLDEN = {
    "average-random-lossy": "b38e97621cf8974849a7445590e5d77a3af91474c8a1a006d2576bf16ca42749",
    "average-newscast-churn": "34b516747613585809c94b7864c407ea66b9622e8e1e3c76d0b58fc81d3c90b2",
    "repeat-traces-r3": "ab09d8817a8856fccec502968ae7e06bc9fcf7d254fea841ff6258ea090421b6",
    "epoch-driver-3": "fb08e2f9672606a0dfac2ecc894f2ba3aaa9cbfe345b45ce01e33543b4d223ba",
    "async-count-hostile": "116d627ebac3cfb5aacc5cd81b225b97e2ab86f2794b61c0d03e4ec2e3950de4",
}


def _average_trace(engine):
    rng = RandomSource(SEED)
    overlay = build_overlay(RANDOM_6, SIZE, rng.child("topology"))
    simulator = engine(
        overlay,
        AverageFunction(),
        uniform_initial_values(SIZE, rng.child("values")),
        rng.child("simulation"),
        transport=TEN_PERCENT_LOSS,
    )
    return simulator.run(CYCLES)


class TestGoldenTraces:
    def test_reference_and_array_engines_match_the_golden_digest(self):
        reference = records_digest(_average_trace(CycleSimulator).records)
        array = records_digest(_average_trace(VectorizedCycleSimulator).records)
        assert reference == array
        assert array == GOLDEN["average-random-lossy"]

    def test_array_newscast_under_churn(self):
        rng = RandomSource(SEED)
        overlay = build_overlay(NEWSCAST_10, SIZE, rng.child("topology"))
        simulator = make_simulator(
            overlay,
            AverageFunction(),
            uniform_initial_values(SIZE, rng.child("values")),
            rng.child("simulation"),
            transport=TEN_PERCENT_LOSS,
            failure_model=ChurnModel(2),
        )
        trace = simulator.run(CYCLES)
        assert records_digest(trace.records) == GOLDEN["average-newscast-churn"]

    def test_repeat_traces_with_a_plan(self):
        plan = RunPlan(
            topology=RANDOM_6,
            size=SIZE,
            cycles=CYCLES,
            values=uniform_initial_values,
            transport=TEN_PERCENT_LOSS,
            failure_factory=lambda: CountCrashModel(1),
        )
        traces = repeat_traces(3, SEED, plan=plan)
        records = [record for trace in traces for record in trace.records]
        assert records_digest(records) == GOLDEN["repeat-traces-r3"]

    @pytest.mark.parametrize(
        "driver_class", [ReferenceEpochDriver, EpochDriver], ids=["reference", "vectorized"]
    )
    def test_epoch_driver(self, driver_class):
        # One epoch body on both engines: the same digest.
        rng = RandomSource(SEED)
        overlay = build_overlay(NEWSCAST_10, 100, rng.child("topology"))
        driver = driver_class(
            overlay=overlay,
            election=LeaderElection(concurrent_target=5.0, estimated_size=100.0),
            epoch_config=EpochConfig(cycles_per_epoch=CYCLES),
            rng=rng.child("epochs"),
            transport=TEN_PERCENT_LOSS,
            failure_factory=lambda epoch_id: ChurnModel(1),
        )
        result = driver.run(3)
        assert records_digest(result.records) == GOLDEN["epoch-driver-3"]

    def test_async_count_under_hostile(self):
        rng = RandomSource(SEED)
        overlay = build_overlay(NEWSCAST_10, 200, rng.child("topology"))
        simulator, protocol = build_async_count(
            overlay,
            rng.child("simulation"),
            HOSTILE,
            epoch_config=EpochConfig(cycles_per_epoch=CYCLES),
        )
        trace = simulator.run(3 * CYCLES)
        records = list(trace.records) + protocol.epoch_records()
        assert records_digest(records) == GOLDEN["async-count-hostile"]

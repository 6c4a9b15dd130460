"""The array engine's state block: row-blocked passes and its memory law.

The array engine keeps one ``(participants, width)`` float64 block per
run — row ``k`` belongs to the ``k``-th participant at construction, in
id order — and runs every pass over it in row blocks of at most
``_STATE_BLOCK_BYTES`` bytes: the initial encode, each conflict round's
gather/merge/scatter, the per-record estimates, the trimmed-mean
reduction and the end-of-run hand-over.  Every array codec operation is
row-local, so blocking never changes a bit: the parity tests patch the
budget down to one to three rows and compare against the same pass in
one block (width 0 is a dry epoch's zero-leader codec).  The memory-law
tests hold the engine to its size: an epoch peaks at its state block plus
a fixed budget, and the block has one row per participant, however many
identifiers churn has issued.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import RandomSource
from repro.core import functions
from repro.core.count import (
    AdaptiveCount,
    CountArrayFunction,
    LeaderElection,
    count_estimates_from_matrix,
)
from repro.core.epoch import EpochConfig
from repro.core.functions import AverageFunction, state_row_blocks
from repro.simulator import EpochDriver, VectorizedCycleSimulator
from repro.simulator.failures import ChurnModel
from repro.simulator.replicated import apply_merge_rounds
from repro.simulator.sampling import conflict_scratch
from repro.simulator.transport import TransportModel
from repro.topology import TopologySpec, build_overlay

#: Row widths under test: a dry epoch's zero-leader rows, the flat AVERAGE
#: column, one leader's map and the 77-leader maps of a first warm epoch.
WIDTHS = [0, 1, 2, 154]


def function_of_width(width, leaders=None):
    """A codec with ``width``-float rows: AVERAGE for 1, a COUNT map otherwise."""
    if width == 1:
        return AverageFunction()
    return CountArrayFunction(range(width // 2) if leaders is None else leaders[: width // 2])


def budget_of(rows, width):
    """Patch the byte budget to ``rows`` rows of ``width`` floats per block."""
    return mock.patch.object(functions, "_STATE_BLOCK_BYTES", rows * 8 * max(1, width))


def random_exchanges(rng, nodes, count):
    """``count`` in-order exchanges between distinct nodes of ``0..nodes-1``."""
    if nodes < 2:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    initiators = rng.integers(0, nodes, count)
    peers = (initiators + rng.integers(1, nodes, count)) % nodes
    return initiators, peers


class TestRowBlocks:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("rows", [0, 1, 5, 1000])
    def test_blocks_tile_the_rows_within_the_budget(self, rows, width):
        with budget_of(3, width):
            blocks = state_row_blocks(rows, width)
        assert [index for block in blocks for index in range(rows)[block]] == list(range(rows))
        assert all(0 < block.stop - block.start <= 3 for block in blocks)

    def test_a_row_wider_than_the_budget_is_one_block(self):
        with mock.patch.object(functions, "_STATE_BLOCK_BYTES", 8):
            assert state_row_blocks(2, 154) == [slice(0, 1), slice(1, 2)]


class TestBlockedPassesAreBitIdentical:
    @settings(max_examples=80, deadline=None)
    @given(
        width=st.sampled_from(WIDTHS),
        block=st.integers(1, 3),
        nodes=st.integers(1, 40),
        count=st.integers(0, 120),
        lossy=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_merge_rounds(self, width, block, nodes, count, lossy, seed):
        rng = np.random.default_rng(seed)
        function = function_of_width(width)
        states = rng.random((nodes, width))
        initiators, peers = random_exchanges(rng, nodes, count)
        completed = rng.random(initiators.size) < 0.7 if lossy else None
        whole = states.copy()
        apply_merge_rounds(whole, function, initiators, peers, completed, conflict_scratch(nodes))
        blocked = states.copy()
        with budget_of(block, width):
            apply_merge_rounds(
                blocked, function, initiators, peers, completed, conflict_scratch(nodes)
            )
        assert blocked.tobytes() == whole.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        width=st.sampled_from(WIDTHS),
        block=st.integers(1, 3),
        rows=st.integers(0, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_trimmed_reduction(self, width, block, rows, seed):
        rng = np.random.default_rng(seed)
        # Zero, negative and denormal entries exercise the inf sizes.
        values = rng.choice([0.0, -0.5, 5e-324, 0.25, 1e-3, 0.1], (rows, width))
        values += rng.random((rows, width)) * (values > 1e-300)
        mask = rng.random((rows, width)) < 0.6
        whole = count_estimates_from_matrix(values, mask)
        with budget_of(block, width):
            blocked = count_estimates_from_matrix(values, mask)
        assert blocked.tobytes() == whole.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        width=st.sampled_from(WIDTHS),
        block=st.integers(1, 3),
        rows=st.integers(0, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ledger_estimate_rows(self, width, block, rows, seed):
        rng = np.random.default_rng(seed)
        leaders = width // 2
        # P_lead = 1: every alive id leads, so the epoch has `leaders` of them.
        count = AdaptiveCount(LeaderElection(concurrent_target=1.0, estimated_size=1.0))
        count.open_epoch(0, range(leaders), RandomSource(seed))
        mask = (rng.random((rows, leaders)) < 0.7).astype(np.float64)
        states = np.hstack([rng.random((rows, leaders)) * mask, mask])
        whole = count.estimate_rows(0, states)
        with budget_of(block, 2 * leaders):
            blocked = count.estimate_rows(0, states)
        assert blocked.tobytes() == whole.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        width=st.sampled_from(WIDTHS),
        block=st.integers(1, 3),
        sparse=st.booleans(),
        lossy=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_engine_encode_records_and_hand_over(self, width, block, sparse, lossy, seed):
        # Churn (on NEWSCAST, the overlay that takes joins) crashes
        # participants every cycle, so the records read both the contiguous
        # rows of cycle 0 and gathered rows after; sparse ids put the run
        # on the id -> row map.
        def run():
            overlay = build_overlay(
                TopologySpec("newscast", degree=8), 90, RandomSource(seed).child("topology")
            )
            if sparse:
                for node in (0, 7, 8, 40, 89):
                    overlay.on_node_removed(node)
            alive = sorted(overlay.node_ids())
            function = function_of_width(width, alive)
            if width == 1:
                values = {node: float(node) for node in alive}
            else:
                values = dict(zip(alive, function.leader_values(alive).tolist()))
            simulator = VectorizedCycleSimulator(
                overlay, function, values, RandomSource(seed).child("run"),
                transport=TransportModel(message_loss_probability=0.2 if lossy else 0.0),
                failure_model=ChurnModel(3),
            )
            simulator.run(4)
            return simulator

        whole = run()
        with budget_of(block, width):
            blocked = run()
            ids = blocked.participant_ids()
            records = repr(blocked.trace.records)
            released = blocked._release_state_array()
        assert np.array_equal(ids, whole.participant_ids())
        assert records == repr(whole.trace.records)
        assert released.tobytes() == whole.state_array().tobytes()

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_epoch_driver(self, block):
        def run():
            rng = RandomSource(2004)
            driver = EpochDriver(
                build_overlay(TopologySpec("newscast", degree=8), 60, rng.child("topology")),
                LeaderElection(concurrent_target=6.0, estimated_size=30.0),
                EpochConfig(cycles_per_epoch=6),
                rng.child("epochs"),
                transport=TransportModel(message_loss_probability=0.1),
                failure_factory=ChurnModel(2),
            )
            return repr(driver.run(4).records)

        whole = run()
        # A budget of `block` floats: one row per block once an epoch has
        # that many columns.
        with mock.patch.object(functions, "_STATE_BLOCK_BYTES", block * 8):
            assert run() == whole


class RowCountingSimulator(VectorizedCycleSimulator):
    """The array engine, remembering each run's state-block row count."""

    block_rows = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.block_rows.append(self._engine._states.shape[0])


class RowCountingDriver(EpochDriver):
    _simulator = RowCountingSimulator


def churned_driver(driver_class, size, concurrent_target, churn):
    rng = RandomSource(2004)
    return driver_class(
        build_overlay(TopologySpec("newscast", degree=20), size, rng.child("topology")),
        LeaderElection(concurrent_target=concurrent_target, estimated_size=float(size)),
        EpochConfig(cycles_per_epoch=10),
        rng.child("epochs"),
        transport=TransportModel(message_loss_probability=0.05),
        failure_factory=ChurnModel(churn),
        record_every=10,
    )


class TestMemoryLaw:
    #: What an epoch may hold besides its state block, whatever its width:
    #: the overlay's maintenance scratch, the cycle plan, the initial
    #: values and a few row blocks of pass temporaries.
    FIXED_BUDGET = 2_500_000

    def test_epoch_peak_is_the_state_block_plus_a_fixed_budget(self):
        driver = churned_driver(EpochDriver, 3000, 75.0, 15)
        # Measure a churned epoch, whose ids are no longer 0..N-1.
        driver.run(1)
        tracemalloc.start()
        try:
            driver.run(1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        record = driver.result.records[-1]
        block = record.participant_count * 2 * record.leader_count * 8
        # Measured: a 3.1 MB block + 1.8 MB.  Rows indexed by id, a full
        # copy for the report and whole-block pass temporaries read 9.9 MB.
        assert 60 <= record.leader_count <= 90
        assert peak <= block + self.FIXED_BUDGET

    def test_block_rows_are_the_epoch_participants(self):
        RowCountingSimulator.block_rows = []
        driver = churned_driver(RowCountingDriver, 600, 10.0, 6)
        records = driver.run(10).records
        # Churn issued 600 fresh ids over the run; the block never grew.
        assert max(driver.overlay.node_ids()) >= 1000
        assert RowCountingSimulator.block_rows == [
            record.participant_count for record in records
        ]

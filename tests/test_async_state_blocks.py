"""The asynchronous engine's epoch blocks: row-blocked passes and memory law.

Each live epoch keeps one float64 block with a row per node that entered
it, in entry order; a node's row sits beside its epoch in ``_row_of``.
Every pass over a block runs in row blocks of at most
``_STATE_BLOCK_BYTES`` bytes: the entry encode, each conflict round's
per-epoch merge, and the estimates behind reports, records and
``current_estimates``.  Every array codec operation is row-local, so the
parity tests patch the budget down to one to three rows and compare the
whole run — trace, ledger, statistics and the blocks themselves — with
the unpatched one, under loss, drift, timeouts and churn, for AVERAGE,
COUNT and a zero-leader (width-0) COUNT.  The memory-law tests hold the
engine to its size: a block never has more rows than its entrants plus
1/16, however many identifiers churn has issued, and an epoch boundary
peaks at the new epoch's block plus a fixed budget.
"""

import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import RandomSource
from repro.core import functions
from repro.core.count import LeaderElection
from repro.core.epoch import EpochConfig
from repro.simulator.async_engine import (
    AsyncAverageProtocol,
    AsyncCountProtocol,
    AsyncPracticalSimulator,
)
from repro.simulator.asynchrony import HOSTILE
from repro.topology import TopologySpec, build_overlay

SIZE = 40
#: Timeouts, loss, strong drift and two swaps per window: epidemic jumps,
#: reports to an older overlapping epoch and lost responses all occur.
SCENARIO = HOSTILE.with_overrides(name="blocks", clock_drift=0.1, churn_per_window=2)
#: COUNT's concurrent target per adapter: ~6 leaders, or mostly none.
TARGETS = {"count": 6.0, "dry": 0.3}


class LoggingCount(AsyncCountProtocol):
    """Adaptive COUNT, counting reports to an epoch older than the newest."""

    def __init__(self, election):
        super().__init__(election)
        self.late_reports = 0

    def report(self, epoch_id, estimates, jumped=False):
        if epoch_id < self.epoch_records()[-1].epoch_id:
            self.late_reports += 1
        return super().report(epoch_id, estimates, jumped)


def run(adapter, seed, windows=24):
    rng = RandomSource(seed)
    overlay = build_overlay(
        TopologySpec("newscast", degree=6, params={"vectorized": True}), SIZE, rng.child("overlay")
    )
    if adapter == "average":
        protocol = AsyncAverageProtocol({node: float(node) for node in range(SIZE)})
    else:
        protocol = LoggingCount(
            LeaderElection(concurrent_target=TARGETS[adapter], estimated_size=float(SIZE))
        )
    simulator = AsyncPracticalSimulator(
        overlay, protocol, EpochConfig(cycles_per_epoch=4), rng.child("run"), scenario=SCENARIO
    )
    simulator.run(windows)
    return simulator, protocol


def outcome(simulator, protocol):
    """Everything a run reports, and its blocks' rows in use, exactly."""
    if isinstance(protocol, AsyncAverageProtocol):
        ledger = repr(protocol.epoch_estimates)
    else:
        ledger = repr(protocol.epoch_records())
    blocks = {
        epoch: states[: simulator._entrants[epoch]].tobytes()
        for epoch, states in simulator._epoch_states.items()
    }
    return (
        repr(simulator.trace.records),
        ledger,
        dict(simulator.statistics),
        simulator.current_estimates().tobytes(),
        blocks,
    )


class TestBlockedPassesAreBitIdentical:
    @settings(max_examples=30, deadline=None)
    @given(
        adapter=st.sampled_from(["average", "count", "dry"]),
        block=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_run(self, adapter, block, seed):
        whole = outcome(*run(adapter, seed))
        # A budget of `block` floats: 1-3 rows per block at widths 0 and 1,
        # one row once an epoch has `block` columns.
        with mock.patch.object(functions, "_STATE_BLOCK_BYTES", block * 8):
            assert outcome(*run(adapter, seed)) == whole

    @pytest.mark.parametrize("adapter", ["average", "count", "dry"])
    def test_the_scenario_exercises_every_rule(self, adapter):
        simulator, protocol = run(adapter, 2004)
        stats = simulator.statistics
        assert stats["sync_jumps"] > 0
        assert stats["response_lost"] > 0
        assert simulator.window_index > 4 * 4  # more than four epochs
        if adapter == "average":
            assert len(protocol.epoch_estimates) >= 4
            return
        assert protocol.late_reports > 0
        widths = [record.leader_count for record in protocol.epoch_records()]
        if adapter == "dry":
            assert 0 in widths
        else:
            assert min(widths) > 0


class EntrantCountingSimulator(AsyncPracticalSimulator):
    """The asynchronous engine, counting each epoch's entrants."""

    def __init__(self, *args, **kwargs):
        self.entrant_count = Counter()
        super().__init__(*args, **kwargs)

    def _enter_epoch(self, epoch_id, nodes):
        self.entrant_count[epoch_id] += nodes.size
        super()._enter_epoch(epoch_id, nodes)


def churned_count(simulator_class, size, target, churn, cycles_per_epoch, seed=2004):
    rng = RandomSource(seed)
    overlay = build_overlay(
        TopologySpec("newscast", degree=20, params={"vectorized": True}), size, rng.child("overlay")
    )
    protocol = AsyncCountProtocol(
        LeaderElection(concurrent_target=target, estimated_size=float(size))
    )
    scenario = HOSTILE.with_overrides(name="churned", churn_per_window=churn)
    simulator = simulator_class(
        overlay, protocol, EpochConfig(cycles_per_epoch=cycles_per_epoch), rng.child("run"),
        scenario=scenario, record_every=cycles_per_epoch,
    )
    return simulator, protocol


class TestMemoryLaw:
    #: What crossing an epoch boundary may allocate besides the new
    #: epoch's block: the window's event, plan and round arrays, the
    #: overlay's maintenance round and a few row blocks of pass
    #: temporaries.
    FIXED_BUDGET = 2_500_000

    def test_blocks_hold_their_entrants_plus_a_sixteenth(self):
        size = 400
        simulator, protocol = churned_count(EntrantCountingSimulator, size, 10.0, 3, 10)
        for _ in range(90):
            simulator.run(1)
            for epoch, states in simulator._epoch_states.items():
                entrants = simulator.entrant_count[epoch]
                assert states.shape[0] <= entrants + entrants // 16
        # Nine churned epochs issued 270 fresh ids; blocks with a row per
        # issued id, grown by doubling, would hold 800 rows here.
        assert len(protocol.epoch_records()) >= 9
        assert min(record.leader_count for record in protocol.epoch_records()) > 0
        assert simulator._next_node_id >= 1.5 * size

    def test_epoch_boundary_peaks_at_the_new_block_plus_a_fixed_budget(self):
        simulator, protocol = churned_count(AsyncPracticalSimulator, 3000, 300.0, 15, 10)
        # A churned epoch and most of a second, a window before the boundary.
        simulator.run(19)
        (old,) = simulator._epoch_states
        old_rows = simulator._epoch_states[old].shape[0]
        tracemalloc.start()
        try:
            simulator.run(1)
            # The old block predates tracing, and it is not grown: joiners
            # enter the new epoch.
            assert simulator._epoch_states[old].shape[0] == old_rows
            simulator.run(2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        (new,) = simulator._epoch_states
        assert new == old + 1
        assert protocol.epoch_records()[new].leader_count >= 100
        block = simulator._epoch_states[new].nbytes
        # Measured: a 6.1 MB block + 2.0 MB.  Blocks with a row per issued
        # id, a whole encode per entering batch and whole-round gathers
        # read 18.3 MB against an 11.8 MB block.
        assert peak <= block + self.FIXED_BUDGET

"""Tests for the shared cycle-plan sampling helpers.

The peel-template cache is shared, mutable, process-global state read by
both engines — including from the thread executor of ``repeat_traces`` —
so its publication discipline gets its own regression tests here, next
to the int32 rank plane of the conflict-round kernel.
"""

import threading

import numpy as np
import pytest

from repro.common.rng import RandomSource
from repro.core.functions import AverageFunction
from repro.newscast.vectorized_cache import (
    ReplicatedNewscastBlock,
    VectorizedNewscastOverlay,
)
from repro.simulator import VectorizedCycleSimulator, sampling
from repro.simulator.async_engine import build_async_average
from repro.simulator.asynchrony import LAN
from repro.simulator.sampling import (
    _peel_templates,
    conflict_scratch,
    ordered_conflict_rounds,
)
from repro.topology import TopologySpec, build_overlay


def assert_templates_consistent(total, templates):
    ascending, doubled, ascending_pairs = templates
    # Positions index the caller's arrays (int64); ranks are int32.
    assert ascending.dtype == np.int64
    assert doubled.dtype == np.int32
    assert ascending_pairs.dtype == np.int32
    assert ascending.shape == (total,)
    assert doubled.shape == (total,)
    assert ascending_pairs.shape == (2 * total,)
    assert np.array_equal(ascending, np.arange(total))
    assert np.array_equal(doubled, 2 * np.arange(total))
    assert np.array_equal(ascending_pairs, np.repeat(np.arange(total), 2))


class TestPeelTemplates:
    def setup_method(self):
        sampling._PEEL_TEMPLATES[0] = (0, None)

    def test_templates_grow_and_serve_prefixes(self):
        assert_templates_consistent(10, _peel_templates(10))
        # A smaller request is served as views of the cached buffer.
        small = _peel_templates(4)
        assert_templates_consistent(4, small)
        assert small[0].base is not None
        # The cache did not shrink.
        assert sampling._PEEL_TEMPLATES[0][0] == 10

    def test_publication_is_a_single_tuple(self):
        # Regression: the cache used to publish the new size *before* the
        # new arrays ([size, arrays] updated slot by slot), so a reader
        # between the two assignments got a large size paired with stale
        # short arrays — and silently mis-ranked conflict rounds.  The
        # cell must hold one immutable (size, arrays) tuple, built fully
        # before a single atomic publication.
        _peel_templates(16)
        cell = sampling._PEEL_TEMPLATES[0]
        assert isinstance(cell, tuple) and len(cell) == 2
        size, arrays = cell
        assert arrays[0].shape == (size,)

    def test_concurrent_readers_never_observe_torn_state(self):
        # Hammer the cache from many threads with interleaved growing and
        # shrinking requests; every reader must always get arrays of
        # exactly the requested length with consistent contents.
        errors = []
        barrier = threading.Barrier(8)

        def worker(seed):
            rng = np.random.default_rng(seed)
            barrier.wait()
            for _ in range(300):
                total = int(rng.integers(1, 257))
                try:
                    templates = _peel_templates(total)
                    assert_templates_consistent(total, templates)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[:1]


class TestInt32RankPlane:
    def test_two_to_the_thirty_exchanges_are_refused(self):
        # Two int32 ranks must sum without overflow.  Broadcast views give
        # the kernel 2^30 exchanges without allocating them.
        exchanges = np.broadcast_to(np.int64(0), (1 << 30,))
        with pytest.raises(ValueError):
            ordered_conflict_rounds(exchanges, exchanges, conflict_scratch(1))

    def test_every_scratch_owner_holds_int32_across_capacity_growth(self):
        rng = RandomSource(5)
        scratches = []
        # The stacked engine: allocated once, in __init__ (a joiner gets no
        # row until the next epoch's engine).
        static = VectorizedCycleSimulator(
            build_overlay(TopologySpec("random", degree=3), 8, rng.child("static")),
            AverageFunction(),
            [float(node) for node in range(8)],
            rng.child("run"),
        )
        scratches.append(static._engine._scratch)
        # Array NEWSCAST: a fresh overlay, one regrown by a join, a block.
        scratches.append(VectorizedNewscastOverlay(4, rng.child("empty"))._scratch)
        overlay = VectorizedNewscastOverlay.bootstrap(8, 4, rng.child("newscast"))
        overlay.on_node_added(8, rng.child("join"))
        overlay.after_cycle(rng.child("round"))
        assert overlay._scratch.size >= overlay._row_capacity > 8
        scratches.append(overlay._scratch)
        block = ReplicatedNewscastBlock.bootstrap(
            2, 8, 4, [rng.child("replica", index) for index in range(2)]
        )
        scratches.append(block._scratch)
        # The asynchronous engine: allocated in __init__, regrown by a join
        # (on NEWSCAST, the overlay that takes joins).
        simulator, _ = build_async_average(
            build_overlay(TopologySpec("newscast", degree=4), 8, rng.child("async")),
            {node: float(node) for node in range(8)},
            rng.child("async-run"),
            LAN,
        )
        scratches.append(simulator._scratch)
        simulator.add_nodes(1, rng.child("async-join"))
        simulator.run(2)
        assert simulator._capacity > 8
        scratches.append(simulator._scratch)
        assert [scratch.dtype for scratch in scratches] == [np.dtype(np.int32)] * 6

"""Equivalence suite for the array-native NEWSCAST overlay.

Three levels of equivalence are asserted, mirroring what the
documentation of :mod:`repro.newscast.vectorized_cache` claims:

* **bit-level, merge kernel** — the batched merge keeps exactly the
  ``c`` freshest entries with the same per-peer dedup and
  ``(timestamp, peer_id)`` tie-breaking as ``NewscastCache.merged_with``
  (hypothesis property, int32 and int64 rows over a random timestamp
  base), and the overlay's int32 matrix with its sliding base holds the
  same caches as an int64 twin, entry for entry;
* **bit-level, engines** — with the *same* array-native overlay on both
  sides, the reference ``CycleSimulator`` and the
  ``VectorizedCycleSimulator`` produce identical traces and states from
  one root seed, across no-failure, churn, crash, sudden-death and
  message-loss scenarios;
* **distribution-level, overlays** — aggregation over the dict-based and
  the array-native overlay follows the same convergence-factor
  trajectory within statistical tolerance (the two overlays consume
  their maintenance randomness differently, so bit-equality is not the
  contract there — matching convergence statistics is).
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.convergence import mean_convergence_factor
from repro.common.errors import MembershipError
from repro.common.rng import RandomSource
from repro.core.functions import AverageFunction, PushSumFunction
from repro.newscast import (
    MAX_NODE_ID,
    CacheEntry,
    NewscastCache,
    NewscastOverlay,
    VectorizedNewscastOverlay,
    merge_packed_pairs,
    unpack_entries,
)
from repro.newscast.vectorized_cache import (
    _EMPTY,
    _MERGE_BLOCK,
    ID_BITS,
    ReplicatedNewscastBlock,
    _apply_rounds,
)
from repro.simulator import (
    ChurnModel,
    CycleSimulator,
    ProportionalCrashModel,
    SuddenDeathModel,
    TransportModel,
    VectorizedCycleSimulator,
    make_simulator,
)
from repro.topology import TopologySpec, build_overlay

SIZE = 60
CYCLES = 8

ARRAY_NEWSCAST = TopologySpec("newscast", degree=8, params={"vectorized": True})
DICT_NEWSCAST = TopologySpec("newscast", degree=8, params={"vectorized": False})

SCENARIOS = {
    "perfect": (TransportModel(), None),
    "message-loss": (TransportModel(message_loss_probability=0.2), None),
    "link-failure": (TransportModel(link_failure_probability=0.3), None),
    "crashes": (TransportModel(), lambda: ProportionalCrashModel(0.05)),
    "churn": (TransportModel(), lambda: ChurnModel(2)),
    "sudden-death": (TransportModel(), lambda: SuddenDeathModel(0.5, at_cycle=3)),
}


def entries_sorted(cache) -> list:
    return [(entry.timestamp, entry.peer_id) for entry in cache.entries()]


# ----------------------------------------------------------------------
# Bit-level: the batched merge kernel vs NewscastCache.merged_with
# ----------------------------------------------------------------------
def entry_lists(draw, now, own_id, capacity, id_pool, oldest=0):
    count = draw(st.integers(min_value=0, max_value=capacity))
    entries = []
    seen = set()
    for _ in range(count):
        peer = draw(st.sampled_from(id_pool))
        if peer == own_id or peer in seen:
            continue
        seen.add(peer)
        timestamp = draw(st.integers(min_value=oldest, max_value=now))
        entries.append(CacheEntry(timestamp=float(timestamp), peer_id=peer))
    return entries


def pack_entries(entries, capacity, base=0):
    """Pack ``entries`` into one padded int64 row (freshest first).

    Timestamps are stored relative to ``base``; a row whose relative
    timestamps stay below 128 may be narrowed with ``astype(np.int32)``.
    """
    row = np.full(capacity, _EMPTY, dtype=np.int64)
    for column, entry in enumerate(sorted(entries, reverse=True)[:capacity]):
        row[column] = ((int(entry.timestamp) - base) << ID_BITS) | entry.peer_id
    return row


def unpacked(row, base=0):
    return [(e.timestamp, e.peer_id) for e in unpack_entries(row, base)]


def empty_overlay(cache_size):
    """An entry-less standalone overlay: the view of an empty one-replica block."""
    return VectorizedNewscastOverlay(ReplicatedNewscastBlock(1, 0, cache_size), 0)


class TestMergeKernelProperty:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_batched_merge_matches_merged_with(self, data):
        capacity = data.draw(st.integers(min_value=1, max_value=8), label="capacity")
        base = data.draw(st.integers(min_value=0, max_value=10**6), label="base")
        dtype = data.draw(st.sampled_from([np.int32, np.int64]), label="dtype")
        # int32 rows hold timestamps in [base, base + 127]; int64 any spread.
        spread = 127 if dtype is np.int32 else 100_000
        now = base + data.draw(st.integers(min_value=1, max_value=spread), label="now")
        id_pool = list(range(40))
        own_a = data.draw(st.sampled_from(id_pool), label="a")
        own_b = data.draw(
            st.sampled_from([i for i in id_pool if i != own_a]), label="b"
        )
        cache_a = NewscastCache(
            capacity, entry_lists(data.draw, now, own_a, capacity, id_pool, base)
        )
        cache_b = NewscastCache(
            capacity, entry_lists(data.draw, now, own_b, capacity, id_pool, base)
        )

        expected_a = cache_a.merged_with(cache_b, own_id=own_a, other_id=own_b, now=float(now))
        expected_b = cache_b.merged_with(cache_a, own_id=own_b, other_id=own_a, now=float(now))
        new_a, new_b = merge_packed_pairs(
            pack_entries(cache_a.entries(), capacity, base)[None, :].astype(dtype),
            pack_entries(cache_b.entries(), capacity, base)[None, :].astype(dtype),
            np.array([own_a], dtype=np.int64),
            np.array([own_b], dtype=np.int64),
            now - base,
            capacity,
        )
        assert new_a.dtype == new_b.dtype == dtype
        assert unpacked(new_a[0], base) == entries_sorted(expected_a)
        assert unpacked(new_b[0], base) == entries_sorted(expected_b)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_int32_and_int64_kernels_agree(self, data):
        capacity = data.draw(st.integers(min_value=1, max_value=6))
        now = data.draw(st.integers(min_value=1, max_value=127))
        own_a, own_b = 1, 2
        cache_a = NewscastCache(capacity, entry_lists(data.draw, now, own_a, capacity, list(range(30))))
        cache_b = NewscastCache(capacity, entry_lists(data.draw, now, own_b, capacity, list(range(30))))
        rows_a = pack_entries(cache_a.entries(), capacity)[None, :]
        rows_b = pack_entries(cache_b.entries(), capacity)[None, :]
        ids_a = np.array([own_a], dtype=np.int64)
        ids_b = np.array([own_b], dtype=np.int64)
        narrow = merge_packed_pairs(
            rows_a.astype(np.int32), rows_b.astype(np.int32), ids_a, ids_b, now, capacity
        )
        wide = merge_packed_pairs(rows_a, rows_b, ids_a, ids_b, now, capacity)
        assert narrow[0].dtype == np.int32 and wide[0].dtype == np.int64
        assert np.array_equal(narrow[0], wide[0])
        assert np.array_equal(narrow[1], wide[1])

    def test_timestamp_beyond_the_packing_is_rejected(self):
        rows = np.full((1, 3), -1, dtype=np.int32)
        ids = np.array([1], dtype=np.int64)
        with pytest.raises(ValueError, match="does not fit"):
            merge_packed_pairs(rows, rows, ids, ids + 1, 128, 3)
        new_a, _ = merge_packed_pairs(rows.astype(np.int64), rows.astype(np.int64), ids, ids + 1, 128, 3)
        assert unpacked(new_a[0]) == [(128.0, 2)]

    def test_round_applied_in_blocks_equals_one_call(self):
        # 5 000 row-disjoint exchanges: the block loop (three kernel calls)
        # must leave the matrix exactly as one kernel call over the round.
        pairs, capacity = 5_000, 8
        assert pairs > 2 * _MERGE_BLOCK
        overlay = VectorizedNewscastOverlay.bootstrap(
            2 * pairs, capacity, RandomSource(41), warmup_cycles=2
        )
        order = np.random.default_rng(5).permutation(2 * pairs)
        batch_a, batch_b = order[:pairs], order[pairs:]
        ids, now = overlay._id_by_row, 3
        blocked = overlay._packed.copy()
        _apply_rounds(blocked, ids, [(batch_a, batch_b, None)], now, capacity)
        whole = overlay._packed.copy()
        new_a, new_b = merge_packed_pairs(
            whole[batch_a], whole[batch_b], ids[batch_a], ids[batch_b], now, capacity
        )
        whole[batch_a] = new_a
        whole[batch_b] = new_b
        assert not np.array_equal(whole, overlay._packed)
        assert np.array_equal(blocked, whole)

    def test_merge_keeps_c_freshest_and_excludes_own(self):
        capacity = 3
        entries_a = [CacheEntry(5.0, 10), CacheEntry(4.0, 11), CacheEntry(1.0, 12)]
        entries_b = [CacheEntry(5.0, 13), CacheEntry(3.0, 10), CacheEntry(2.0, 1)]
        new_a, new_b = merge_packed_pairs(
            pack_entries(entries_a, capacity)[None, :],
            pack_entries(entries_b, capacity)[None, :],
            np.array([1], dtype=np.int64),
            np.array([2], dtype=np.int64),
            6,
            capacity,
        )
        # Direction A: fresh (6, 2) + freshest per peer, own id 1 excluded.
        assert unpacked(new_a[0]) == [
            (6.0, 2),
            (5.0, 13),
            (5.0, 10),
        ]
        # Direction B: fresh (6, 1) replaces B's stale (2.0, 1) descriptor.
        assert unpacked(new_b[0]) == [
            (6.0, 1),
            (5.0, 13),
            (5.0, 10),
        ]


# ----------------------------------------------------------------------
# Bit-level: reference vs vectorized engine on the array-native overlay
# ----------------------------------------------------------------------
def build_engine(engine, scenario_key, function_class=AverageFunction, seed=11):
    transport, failure_factory = SCENARIOS[scenario_key]
    rng = RandomSource(seed)
    overlay = build_overlay(ARRAY_NEWSCAST, SIZE, rng.child("topology"))
    return engine(
        overlay=overlay,
        function=function_class(),
        initial_values=[float(i) for i in range(SIZE)],
        rng=rng.child("simulation"),
        transport=transport,
        failure_model=failure_factory() if failure_factory else None,
    )


def assert_traces_match(reference, vectorized, label):
    assert len(reference.trace) == len(vectorized.trace), label
    for expected, actual in zip(reference.trace.records, vectorized.trace.records):
        assert expected.cycle == actual.cycle, label
        assert expected.participant_count == actual.participant_count, label
        assert expected.completed_exchanges == actual.completed_exchanges, label
        assert expected.failed_exchanges == actual.failed_exchanges, label
        for field in ("mean", "variance", "minimum", "maximum"):
            expected_value = getattr(expected, field)
            actual_value = getattr(actual, field)
            if math.isnan(expected_value) and math.isnan(actual_value):
                continue
            assert actual_value == pytest.approx(
                expected_value, rel=1e-9, abs=1e-12
            ), f"{label}: {field} diverged at cycle {expected.cycle}"


class TestEngineParityOnArrayNewscast:
    @pytest.mark.parametrize("scenario_key", sorted(SCENARIOS))
    @pytest.mark.parametrize("function_class", [AverageFunction, PushSumFunction])
    def test_same_seed_same_trace_and_states(self, function_class, scenario_key):
        label = f"{function_class.__name__}/{scenario_key}"
        reference = build_engine(CycleSimulator, scenario_key, function_class)
        vectorized = build_engine(VectorizedCycleSimulator, scenario_key, function_class)
        reference.run(CYCLES)
        vectorized.run(CYCLES)
        assert_traces_match(reference, vectorized, label)
        assert np.array_equal(reference.state_array(), vectorized.state_array()), label
        assert np.array_equal(reference.participant_ids(), vectorized.participant_ids()), label
        # The same crashes left both overlays.
        assert sorted(reference.overlay.node_ids()) == sorted(
            vectorized.overlay.node_ids()
        ), label

    def test_membership_parity_under_churn(self):
        reference = build_engine(CycleSimulator, "churn")
        vectorized = build_engine(VectorizedCycleSimulator, "churn")
        reference.run(6)
        vectorized.run(6)
        assert np.array_equal(reference.participant_ids(), vectorized.participant_ids())
        assert np.array_equal(
            reference.overlay.node_ids(), vectorized.overlay.node_ids()
        )


# ----------------------------------------------------------------------
# Distribution-level: dict-based vs array-native overlay
# ----------------------------------------------------------------------
def convergence_factor_for(spec, scenario_key, repeats=4, size=600, cycles=12):
    transport, failure_factory = SCENARIOS[scenario_key]
    factors = []
    for repeat in range(repeats):
        rng = RandomSource(900 + repeat)
        overlay = build_overlay(
            TopologySpec(spec.kind, degree=spec.degree, params=spec.params),
            size,
            rng.child("topology"),
        )
        simulator = make_simulator(
            overlay=overlay,
            function=AverageFunction(),
            initial_values=[rng.child("values").uniform(0.0, 100.0) for _ in range(size)],
            rng=rng.child("simulation"),
            transport=transport,
            failure_model=failure_factory() if failure_factory else None,
        )
        simulator.run(cycles)
        factors.append(mean_convergence_factor([simulator.trace], cycles))
    return float(np.mean(factors))


class TestOverlayDistributionEquivalence:
    @pytest.mark.parametrize("scenario_key", ["perfect", "churn", "message-loss"])
    def test_convergence_factor_matches_dict_overlay(self, scenario_key):
        dict_factor = convergence_factor_for(DICT_NEWSCAST, scenario_key)
        array_factor = convergence_factor_for(ARRAY_NEWSCAST, scenario_key)
        # Same protocol, same parameters, independent randomness: the
        # mean per-cycle variance-reduction factor must agree closely.
        assert array_factor == pytest.approx(dict_factor, abs=0.035), scenario_key


# ----------------------------------------------------------------------
# Overlay behaviour and dispatch
# ----------------------------------------------------------------------
class TestVectorizedOverlayBehaviour:
    def bootstrap(self, size=80, cache=7, seed=5):
        return VectorizedNewscastOverlay.bootstrap(
            size, cache_size=cache, rng=RandomSource(seed).child("boot")
        )

    def test_bootstrap_counts_and_no_self_references(self):
        overlay = self.bootstrap()
        assert overlay.size() == 80
        assert overlay.node_ids().tolist() == list(range(80))
        for node in range(80):
            cache = overlay.cache_of(node)
            assert 0 < len(cache) <= 7
            assert node not in cache.peer_ids()
            assert len(set(cache.peer_ids())) == len(cache.peer_ids())

    @pytest.mark.parametrize("size", [2, 3, 60, 2048, 2049])
    def test_one_bootstrap_sampler_for_both_overlays(self, size):
        # Both sides of the old 2048-node sampler switch: the dict oracle
        # and the array overlay start from the very same caches.
        oracle = NewscastOverlay.bootstrap(size, 30, RandomSource(8), warmup_cycles=0)
        overlay = VectorizedNewscastOverlay.bootstrap(size, 30, RandomSource(8), warmup_cycles=0)
        fill = min(30, size - 1)
        for node in range(size):
            entries = overlay.cache_of(node).entries()
            assert entries == oracle.cache_of(node).entries()
            peers = [entry.peer_id for entry in entries]
            assert len(set(peers)) == fill and node not in peers

    def test_after_cycle_advances_clock_and_exchanges(self):
        overlay = self.bootstrap()
        clock = overlay.clock
        overlay.after_cycle(RandomSource(9))
        assert overlay.clock == clock + 1
        assert 0 < overlay.last_cycle_exchanges <= 80

    def test_caches_never_hold_own_or_duplicate_ids(self):
        overlay = self.bootstrap()
        rng = RandomSource(13)
        for _ in range(10):
            overlay.after_cycle(rng)
        for node in overlay.node_ids():
            peers = overlay.neighbors(node)
            assert node not in peers
            assert len(set(peers)) == len(peers)

    def test_stale_fraction_with_underfull_caches(self):
        # Regression: -1 padding slots must not alias to id MAX_NODE_ID
        # and index out of bounds when caches are not full (size <= c).
        overlay = VectorizedNewscastOverlay.bootstrap(
            10, cache_size=30, rng=RandomSource(1).child("boot")
        )
        assert overlay.stale_reference_fraction() == 0.0
        overlay.on_node_removed(4)
        assert 0.0 < overlay.stale_reference_fraction() < 1.0

    def test_self_repair_ages_out_crashed_nodes(self):
        overlay = self.bootstrap(size=120, cache=8)
        for node in range(40):
            overlay.on_node_removed(node)
        assert overlay.stale_reference_fraction() > 0.0
        rng = RandomSource(17)
        for _ in range(25):
            overlay.after_cycle(rng)
        assert overlay.stale_reference_fraction() < 0.02

    def test_row_recycling_under_churn(self):
        overlay = self.bootstrap(size=50, cache=6)
        rows_before = overlay._packed.shape[0]
        rng = RandomSource(23)
        for step in range(120):
            overlay.on_node_removed(step % 50 if step < 50 else 50 + step - 50)
            overlay.on_node_added(50 + step, rng)
            overlay.after_cycle(rng)
        assert overlay.size() == 50
        # Replaced nodes reuse freed rows: the matrices never grow.
        assert overlay._packed.shape[0] == rows_before
        assert len(overlay.node_ids()) == 50

    def test_contains_is_o1_and_correct(self):
        overlay = self.bootstrap(size=30)
        assert overlay.contains(3)
        overlay.on_node_removed(3)
        assert not overlay.contains(3)
        assert not overlay.contains(10_000)
        assert not overlay.contains(-1)

    def test_add_existing_node_rejected(self):
        overlay = self.bootstrap(size=10)
        with pytest.raises(MembershipError):
            overlay.on_node_added(3, RandomSource(1))

    def test_oversized_node_id_rejected(self):
        overlay = self.bootstrap(size=10)
        with pytest.raises(MembershipError):
            overlay.on_node_added(MAX_NODE_ID + 1, RandomSource(1))

    def test_joiner_learns_contact_view(self):
        overlay = self.bootstrap(size=20, cache=6)
        overlay.on_node_added(99, RandomSource(3))
        cache = overlay.cache_of(99)
        assert not cache.is_empty()
        assert 99 not in cache.peer_ids()
        # Some live node heard about the joiner immediately.
        referencing = [
            node
            for node in overlay.node_ids()
            if node != 99 and 99 in overlay.cache_of(node).peer_ids()
        ]
        assert referencing

    def test_select_peers_batch_matches_cache_contents(self):
        overlay = self.bootstrap(size=40, cache=5)
        ids = np.asarray(overlay.node_ids(), dtype=np.int64)
        peers = overlay.select_peers_batch(ids, np.random.default_rng(7))
        assert peers.shape == ids.shape
        for node, peer in zip(ids, peers):
            assert int(peer) in overlay.cache_of(int(node)).peer_ids()

    def test_select_peers_batch_empty_cache_returns_minus_one(self):
        overlay = empty_overlay(4)
        overlay.on_node_added(0, RandomSource(3))  # first node: empty cache
        peers = overlay.select_peers_batch(
            np.asarray([0], dtype=np.int64), np.random.default_rng(1)
        )
        assert peers.tolist() == [-1]

    def test_select_peers_batch_unknown_ids_return_minus_one(self):
        # Regression: -1 wrapped onto the last node's row (a real peer came
        # back) and an id past the table raised IndexError.
        overlay = self.bootstrap(size=50, cache=5)
        overlay.on_node_removed(7)
        ids = np.array([3, -1, 50, 7, 10**9, 4], dtype=np.int64)
        peers = overlay.select_peers_batch(ids, np.random.default_rng(1))
        assert peers[[1, 2, 3, 4]].tolist() == [-1, -1, -1, -1]
        assert int(peers[0]) in overlay.cache_of(3).peer_ids()
        assert int(peers[5]) in overlay.cache_of(4).peer_ids()
        # Unknown ids consume no randomness: the known ones draw as alone.
        alone = overlay.select_peers_batch(ids[[0, 3, 5]], np.random.default_rng(1))
        assert peers[[0, 3, 5]].tolist() == alone.tolist()
        never_populated = empty_overlay(4)
        assert never_populated.select_peers_batch(
            np.array([0, 5]), np.random.default_rng(1)
        ).tolist() == [-1, -1]

    def test_node_ids_are_a_sorted_int64_array(self):
        overlay = self.bootstrap(size=12)
        overlay.on_node_removed(4)
        overlay.on_node_added(40, RandomSource(1))
        ids = overlay.node_ids()
        assert ids.tolist() == [0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 40]
        assert ids.dtype == np.int64

    def test_long_run_crosses_the_first_base_slide(self):
        # The clock outgrows the 7 timestamp bits of the int32 packing at
        # 128: the base slides, the matrix stays int32, invariants survive.
        overlay = self.bootstrap(size=30, cache=5)
        rng = RandomSource(31)
        for _ in range(135):
            overlay.after_cycle(rng)
        assert overlay.clock == 140.0  # 5 warmup cycles + 135
        assert overlay.packing == "int32" and overlay.widened_at is None
        assert overlay._block._ts_base > 0
        for node in overlay.node_ids():
            cache = overlay.cache_of(node)
            assert len(cache) == 5
            assert node not in cache.peer_ids()
            assert cache.freshest_timestamp() <= overlay.clock

    def test_in_degree_distribution_counts_live_references(self):
        overlay = self.bootstrap(size=25, cache=5)
        degrees = overlay.in_degree_distribution()
        assert set(degrees) == set(overlay.node_ids())
        total_entries = sum(len(overlay.cache_of(n)) for n in overlay.node_ids())
        assert sum(degrees.values()) == total_entries


# ----------------------------------------------------------------------
# One dtype per matrix: the sliding timestamp base and the widening
# ----------------------------------------------------------------------
def twin_overlays(size, cache, seed):
    """The same overlay twice; the twin's matrix is int64 from bootstrap on.

    An int64 matrix holds 39 timestamp bits, so the twin never slides its
    base: it is the plain absolute-timestamp packing to compare against.
    """
    overlay = VectorizedNewscastOverlay.bootstrap(size, cache, RandomSource(seed))
    twin = VectorizedNewscastOverlay.bootstrap(size, cache, RandomSource(seed))
    twin._block._packed = twin._block._packed.astype(np.int64)
    return overlay, twin


def assert_same_caches(overlay, twin, draw_seed):
    assert np.array_equal(overlay.node_ids(), twin.node_ids())
    for node in overlay.node_ids():
        assert entries_sorted(overlay.cache_of(node)) == entries_sorted(twin.cache_of(node))
    ids = np.asarray(overlay.node_ids(), dtype=np.int64)
    assert np.array_equal(
        overlay.select_peers_batch(ids, np.random.default_rng(draw_seed)),
        twin.select_peers_batch(ids, np.random.default_rng(draw_seed)),
    )


def churn_engine(overlay, size, replacements, seed=77):
    return make_simulator(
        overlay=overlay,
        function=AverageFunction(),
        initial_values=[float(i % 17) for i in range(size)],
        rng=RandomSource(seed),
        failure_model=ChurnModel(replacements),
    )


class TestSlidingTimestampBase:
    def test_churn_run_slides_twice_and_stays_int32(self):
        size = 2_000
        overlay, twin = twin_overlays(size, 30, seed=19)
        engines = [churn_engine(o, size, replacements=5) for o in (overlay, twin)]
        slides = 0
        for cycle in range(300):
            base = overlay._block._ts_base
            for engine in engines:
                engine.run(1)
            if overlay._block._ts_base != base:
                slides += 1
                assert_same_caches(overlay, twin, draw_seed=cycle)
        assert slides >= 2
        assert overlay.packing == "int32" and overlay.widened_at is None
        assert twin._block._ts_base == 0
        assert_same_caches(overlay, twin, draw_seed=300)
        assert np.array_equal(engines[0].state_array(), engines[1].state_array())

    def test_slides_are_rare_at_n10k_under_heavy_churn(self):
        size = 10_000
        overlay = VectorizedNewscastOverlay.bootstrap(size, 30, RandomSource(23))
        engine = churn_engine(overlay, size, replacements=50)
        slide_clocks = []
        for _ in range(300):
            base = overlay._block._ts_base
            engine.run(1)
            if overlay._block._ts_base != base:
                slide_clocks.append(overlay.clock)
        assert overlay.packing == "int32" and overlay.widened_at is None
        # The O(rows * c) slide pass runs at most once per 64 rounds.
        assert len(slide_clocks) >= 2
        assert min(np.diff([0.0] + slide_clocks)) >= 64

    def test_stale_descriptor_widens_at_the_expected_clock(self):
        # N = 8 < c: caches never fill, so the crashed node's descriptor is
        # never evicted and the live spread grows with the clock.
        overlay, twin = twin_overlays(8, 30, seed=3)
        rngs = [RandomSource(5), RandomSource(5)]
        for o in (overlay, twin):
            o.on_node_removed(3)
        for cycle in range(200):
            for o, rng in zip((overlay, twin), rngs):
                o.after_cycle(rng)
            assert_same_caches(overlay, twin, draw_seed=cycle)
        stale = min(e.timestamp for n in twin.node_ids() for e in twin.cache_of(n).entries())
        assert stale <= 5.0 and overlay.clock == 205.0
        # Slid once at clock 128 (base -> stale); at stale + 128 the spread
        # itself no longer fits 7 bits.
        assert overlay.packing == "int64"
        assert overlay.widened_at == int(stale) + 128
        assert overlay._block._ts_base == int(stale)

    def test_entry_less_overlay_slides_by_the_whole_clock_span(self):
        # Regression: with no valid entry the base moves by clock - base =
        # 128, and 128 << 24 does not fit int32 — nothing to subtract then.
        overlay = VectorizedNewscastOverlay.bootstrap(5, 3, RandomSource(1))
        for node in range(5):
            overlay.on_node_removed(node)
        rng = RandomSource(2)
        for _ in range(200):
            overlay.after_cycle(rng)
        assert overlay.packing == "int32" and overlay._block._ts_base == 128
        overlay.on_node_added(9, rng)
        overlay.on_node_added(10, rng)
        overlay.after_cycle(rng)
        assert entries_sorted(overlay.cache_of(9)) == [(206.0, 10)]
        assert entries_sorted(overlay.cache_of(10)) == [(206.0, 9)]

    def test_int32_matrix_memory_law(self):
        # Retained after bootstrap(2e4, 30): 4.95 MB, of which the matrix is
        # rows * c * 4 = 2.4 MB; the int64 matrix retained 7.36 MB.
        tracemalloc.start()
        try:
            overlay = VectorizedNewscastOverlay.bootstrap(20_000, 30, RandomSource(3))
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert overlay._packed.nbytes == 20_000 * 30 * 4
        assert retained < 6.0e6


class TestDispatch:
    @pytest.mark.parametrize(
        "spec, overlay_class",
        [(ARRAY_NEWSCAST, VectorizedNewscastOverlay), (DICT_NEWSCAST, NewscastOverlay)],
        ids=["array", "dict"],
    )
    def test_both_newscast_overlays_run_on_the_default_engine(self, spec, overlay_class):
        rng = RandomSource(3)
        overlay = build_overlay(spec, SIZE, rng.child("t"))
        assert isinstance(overlay, overlay_class)
        simulator = make_simulator(
            overlay, AverageFunction(), [1.0] * SIZE, rng.child("s")
        )
        assert isinstance(simulator, VectorizedCycleSimulator)

    def test_mass_conservation_on_fast_path(self):
        rng = RandomSource(8)
        overlay = build_overlay(ARRAY_NEWSCAST, SIZE, rng.child("t"))
        simulator = make_simulator(
            overlay,
            AverageFunction(),
            [float(i) for i in range(SIZE)],
            rng.child("s"),
        )
        before = simulator.state_array().sum()
        simulator.run(6)
        after = simulator.state_array().sum()
        assert after == pytest.approx(before, rel=1e-9)

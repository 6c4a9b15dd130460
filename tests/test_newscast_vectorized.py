"""Equivalence suite for the array-native NEWSCAST overlay.

Three levels of equivalence are asserted, mirroring what the
documentation of :mod:`repro.newscast.vectorized_cache` claims:

* **bit-level, merge kernel** — the batched merge keeps exactly the
  ``c`` freshest entries with the same per-peer dedup and
  ``(timestamp, peer_id)`` tie-breaking as ``NewscastCache.merged_with``
  (hypothesis property, both the narrow-int32 and wide-int64 kernels);
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
    pack_entries,
    unpack_entries,
)
from repro.simulator import (
    ChurnModel,
    CycleSimulator,
    ProportionalCrashModel,
    SuddenDeathModel,
    TransportModel,
    VectorizedCycleSimulator,
    make_simulator,
    supports_fast_path,
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
def entry_lists(draw, now, own_id, capacity, id_pool):
    count = draw(st.integers(min_value=0, max_value=capacity))
    entries = []
    seen = set()
    for _ in range(count):
        peer = draw(st.sampled_from(id_pool))
        if peer == own_id or peer in seen:
            continue
        seen.add(peer)
        timestamp = draw(st.integers(min_value=0, max_value=now))
        entries.append(CacheEntry(timestamp=float(timestamp), peer_id=peer))
    return entries


class TestMergeKernelProperty:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_batched_merge_matches_merged_with(self, data):
        capacity = data.draw(st.integers(min_value=1, max_value=8), label="capacity")
        # Timestamps beyond the narrow packing exercise the int64 kernel.
        now = data.draw(
            st.one_of(
                st.integers(min_value=1, max_value=120),
                st.integers(min_value=128, max_value=100_000),
            ),
            label="now",
        )
        id_pool = list(range(40))
        own_a = data.draw(st.sampled_from(id_pool), label="a")
        own_b = data.draw(
            st.sampled_from([i for i in id_pool if i != own_a]), label="b"
        )
        cache_a = NewscastCache(capacity, entry_lists(data.draw, now, own_a, capacity, id_pool))
        cache_b = NewscastCache(capacity, entry_lists(data.draw, now, own_b, capacity, id_pool))

        expected_a = cache_a.merged_with(cache_b, own_id=own_a, other_id=own_b, now=float(now))
        expected_b = cache_b.merged_with(cache_a, own_id=own_b, other_id=own_a, now=float(now))
        new_a, new_b = merge_packed_pairs(
            pack_entries(cache_a.entries(), capacity)[None, :],
            pack_entries(cache_b.entries(), capacity)[None, :],
            np.array([own_a], dtype=np.int64),
            np.array([own_b], dtype=np.int64),
            now,
            capacity,
            ts_bound=now,
        )
        assert [(e.timestamp, e.peer_id) for e in unpack_entries(new_a[0])] == entries_sorted(expected_a)
        assert [(e.timestamp, e.peer_id) for e in unpack_entries(new_b[0])] == entries_sorted(expected_b)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_narrow_and_wide_kernels_agree(self, data):
        capacity = data.draw(st.integers(min_value=1, max_value=6))
        now = data.draw(st.integers(min_value=1, max_value=120))
        own_a, own_b = 1, 2
        cache_a = NewscastCache(capacity, entry_lists(data.draw, now, own_a, capacity, list(range(30))))
        cache_b = NewscastCache(capacity, entry_lists(data.draw, now, own_b, capacity, list(range(30))))
        rows_a = pack_entries(cache_a.entries(), capacity)[None, :]
        rows_b = pack_entries(cache_b.entries(), capacity)[None, :]
        ids_a = np.array([own_a], dtype=np.int64)
        ids_b = np.array([own_b], dtype=np.int64)
        narrow = merge_packed_pairs(rows_a, rows_b, ids_a, ids_b, now, capacity, ts_bound=now)
        wide = merge_packed_pairs(rows_a, rows_b, ids_a, ids_b, now, capacity, ts_bound=None)
        assert np.array_equal(narrow[0], wide[0])
        assert np.array_equal(narrow[1], wide[1])

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
        assert [(e.timestamp, e.peer_id) for e in unpack_entries(new_a[0])] == [
            (6.0, 2),
            (5.0, 13),
            (5.0, 10),
        ]
        # Direction B: fresh (6, 1) replaces B's stale (2.0, 1) descriptor.
        assert [(e.timestamp, e.peer_id) for e in unpack_entries(new_b[0])] == [
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
    return make_simulator(
        overlay=overlay,
        function=function_class(),
        initial_values=[float(i) for i in range(SIZE)],
        rng=rng.child("simulation"),
        transport=transport,
        failure_model=failure_factory() if failure_factory else None,
        engine=engine,
    )


def assert_traces_match(reference, vectorized, label):
    assert len(reference.trace) == len(vectorized.trace), label
    for expected, actual in zip(reference.trace, vectorized.trace):
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
        reference = build_engine("reference", scenario_key, function_class)
        vectorized = build_engine("vectorized", scenario_key, function_class)
        assert isinstance(reference, CycleSimulator)
        assert isinstance(vectorized, VectorizedCycleSimulator)
        reference.run(CYCLES)
        vectorized.run(CYCLES)
        assert_traces_match(reference, vectorized, label)
        assert reference.states() == vectorized.states(), label
        assert reference.participant_ids() == vectorized.participant_ids(), label
        assert reference.crashed_ids() == vectorized.crashed_ids(), label

    def test_membership_parity_under_churn(self):
        reference = build_engine("reference", "churn")
        vectorized = build_engine("vectorized", "churn")
        reference.run(6)
        vectorized.run(6)
        assert reference.non_participant_ids() == vectorized.non_participant_ids()
        assert (
            reference.overlay.node_ids() == vectorized.overlay.node_ids()
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
        assert overlay.node_ids() == list(range(80))
        for node in range(80):
            cache = overlay.cache_of(node)
            assert 0 < len(cache) <= 7
            assert node not in cache.peer_ids()
            assert len(set(cache.peer_ids())) == len(cache.peer_ids())

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
        overlay = VectorizedNewscastOverlay(cache_size=4, rng=RandomSource(2))
        overlay.on_node_added(0, RandomSource(3))  # first node: empty cache
        peers = overlay.select_peers_batch(
            np.asarray([0], dtype=np.int64), np.random.default_rng(1)
        )
        assert peers.tolist() == [-1]
        assert overlay.select_peer(0, RandomSource(4)) is None

    def test_long_run_crosses_narrow_packing_boundary(self):
        # The kernel switches from int32 to int64 packing once the clock
        # outgrows the narrow timestamp field; invariants must survive.
        overlay = self.bootstrap(size=30, cache=5)
        rng = RandomSource(31)
        for _ in range(135):
            overlay.after_cycle(rng)
        assert overlay.clock == 140.0  # 5 warmup cycles + 135
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


class TestDispatch:
    def test_array_newscast_supports_fast_path(self):
        rng = RandomSource(3)
        overlay = build_overlay(ARRAY_NEWSCAST, SIZE, rng.child("t"))
        assert isinstance(overlay, VectorizedNewscastOverlay)
        assert supports_fast_path(AverageFunction(), overlay)
        simulator = make_simulator(
            overlay, AverageFunction(), [1.0] * SIZE, rng.child("s")
        )
        assert isinstance(simulator, VectorizedCycleSimulator)

    def test_dict_newscast_still_falls_back(self):
        rng = RandomSource(3)
        overlay = build_overlay(DICT_NEWSCAST, SIZE, rng.child("t"))
        assert isinstance(overlay, NewscastOverlay)
        assert not supports_fast_path(AverageFunction(), overlay)

    def test_mass_conservation_on_fast_path(self):
        rng = RandomSource(8)
        overlay = build_overlay(ARRAY_NEWSCAST, SIZE, rng.child("t"))
        simulator = make_simulator(
            overlay,
            AverageFunction(),
            [float(i) for i in range(SIZE)],
            rng.child("s"),
            engine="vectorized",
        )
        before = sum(simulator.states().values())
        simulator.run(6)
        after = sum(simulator.states().values())
        assert after == pytest.approx(before, rel=1e-9)

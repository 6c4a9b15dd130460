"""Tests for the COUNT protocol building blocks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, ProtocolError
from repro.common.rng import RandomSource
from repro.core.count import (
    AdaptiveCount,
    CountArrayFunction,
    LeaderElection,
    count_estimate_from_map,
    network_size_from_estimate,
    peak_initial_values,
)

#: Random COUNT maps: small leader universes with non-negative estimates.
count_maps = st.dictionaries(
    keys=st.integers(min_value=0, max_value=30),
    values=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    max_size=10,
)


def count_map():
    """The map COUNT over a universe holding every key ``count_maps`` draws."""
    return CountArrayFunction(range(31))


class TestPeakDistribution:
    def test_peak_values(self):
        values = peak_initial_values(5)
        assert values == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_custom_peak_value(self):
        values = peak_initial_values(4, peak_value=4.0)
        assert values[0] == 4.0
        assert sum(values) == 4.0

    def test_size_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            peak_initial_values(0)

    def test_size_from_estimate(self):
        assert network_size_from_estimate(0.01) == pytest.approx(100.0)

    def test_size_from_zero_or_none_is_infinite(self):
        assert network_size_from_estimate(0.0) == math.inf
        assert network_size_from_estimate(None) == math.inf
        assert network_size_from_estimate(-0.5) == math.inf
        assert network_size_from_estimate(math.nan) == math.inf

    @settings(max_examples=60, deadline=None)
    @given(estimates=st.lists(st.one_of(st.none(), st.floats()), max_size=20))
    def test_size_from_array_matches_scalar(self, estimates):
        sizes = network_size_from_estimate(np.array(estimates, dtype=np.float64))
        assert sizes.tolist() == [network_size_from_estimate(value) for value in estimates]

    def test_size_from_array_is_elementwise(self):
        estimates = np.array([[0.01, 0.0], [-0.5, math.nan], [5e-324, 0.25]])
        sizes = network_size_from_estimate(estimates)
        assert sizes.shape == estimates.shape
        assert sizes.tolist() == [[100.0, math.inf], [math.inf, math.inf], [math.inf, 4.0]]


class TestCountMapScalarCodec:
    def test_initial_state_for_leader(self):
        assert count_map().initial_state(7) == {7: 1.0}

    def test_initial_state_for_non_leader(self):
        assert count_map().initial_state(None) == {}

    def test_initial_state_from_mapping(self):
        assert count_map().initial_state({3: 0.5}) == {3: 0.5}

    def test_initial_state_invalid_type_rejected(self):
        with pytest.raises(ProtocolError):
            count_map().initial_state("leader")

    def test_initial_state_outside_the_universe_rejected(self):
        with pytest.raises(ProtocolError):
            count_map().initial_state(31)
        with pytest.raises(ProtocolError):
            count_map().initial_state({40: 0.5})

    def test_merge_shared_key_averaged(self):
        function = count_map()
        merged, merged_other = function.merge({1: 0.4}, {1: 0.2})
        assert merged == {1: pytest.approx(0.3)}
        assert merged == merged_other

    def test_merge_disjoint_keys_halved(self):
        function = count_map()
        merged, _ = function.merge({1: 0.4}, {2: 0.8})
        assert merged == {1: pytest.approx(0.2), 2: pytest.approx(0.4)}

    def test_merge_with_empty_map_halves_everything(self):
        function = count_map()
        merged, _ = function.merge({5: 1.0}, {})
        assert merged == {5: 0.5}

    def test_merge_conserves_total_mass(self):
        function = count_map()
        state_a = {1: 0.4, 2: 0.6}
        state_b = {2: 0.2, 3: 1.0}
        merged_a, merged_b = function.merge(state_a, state_b)
        before = sum(state_a.values()) + sum(state_b.values())
        after = sum(merged_a.values()) + sum(merged_b.values())
        assert after == pytest.approx(before)

    def test_merge_does_not_mutate_inputs(self):
        function = count_map()
        state_a = {1: 0.4}
        state_b = {2: 0.8}
        function.merge(state_a, state_b)
        assert state_a == {1: 0.4}
        assert state_b == {2: 0.8}

    def test_estimate_of_empty_map_is_none(self):
        assert count_map().estimate({}) is None

    def test_estimate_averages_entries(self):
        assert count_map().estimate({1: 0.2, 2: 0.4}) == pytest.approx(0.3)

    def test_conserved_quantity_counts_total_mass(self):
        states = [{1: 1.0}, {}, {2: 1.0}]
        assert count_map().conserved_quantity(states) == 2.0


class TestCountMapMergeProperties:
    """Hypothesis properties of the paper's map-merge rule (Section 5)."""

    @settings(max_examples=80, deadline=None)
    @given(state_a=count_maps, state_b=count_maps)
    def test_merge_conserves_total_mass(self, state_a, state_b):
        merged_a, merged_b = count_map().merge(state_a, state_b)
        before = sum(state_a.values()) + sum(state_b.values())
        after = sum(merged_a.values()) + sum(merged_b.values())
        assert after == pytest.approx(before, rel=1e-12, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(state_a=count_maps, state_b=count_maps)
    def test_both_peers_install_equal_independent_maps(self, state_a, state_b):
        merged_a, merged_b = count_map().merge(state_a, state_b)
        assert merged_a == merged_b
        assert merged_a is not merged_b  # independent copies, no aliasing
        assert set(merged_a) == set(state_a) | set(state_b)

    @settings(max_examples=80, deadline=None)
    @given(state_a=count_maps, state_b=count_maps)
    def test_merge_is_symmetric(self, state_a, state_b):
        forward, _ = count_map().merge(state_a, state_b)
        backward, _ = count_map().merge(state_b, state_a)
        assert forward == backward

    @settings(max_examples=60, deadline=None)
    @given(state=count_maps)
    def test_merging_equal_maps_is_identity(self, state):
        merged, _ = count_map().merge(state, dict(state))
        assert merged == pytest.approx(state)


class TestCountEstimateFromMap:
    def test_empty_map_gives_infinity(self):
        assert count_estimate_from_map({}) == math.inf

    def test_single_entry(self):
        assert count_estimate_from_map({1: 0.01}) == pytest.approx(100.0)

    def test_trimming_discards_outliers(self):
        state = {1: 1e-9, 2: 0.01, 3: 0.01, 4: 0.01, 5: 0.5, 6: 0.01}
        trimmed = count_estimate_from_map(state)
        assert trimmed == pytest.approx(100.0, rel=0.05)

    def test_all_infinite_entries_give_infinity(self):
        # Entries whose averaging mass vanished estimate an infinite size;
        # if nothing finite remains, the node reports inf.
        assert count_estimate_from_map({1: 0.0, 2: 0.0}) == math.inf
        assert count_estimate_from_map({1: 0.0}) == math.inf

    def test_infinite_entries_are_trimmed_first(self):
        state = {1: 0.0, 2: 0.01, 3: 0.01, 4: 0.01, 5: 0.01, 6: 1.0}
        trimmed = count_estimate_from_map(state)
        assert trimmed == pytest.approx(100.0, rel=0.05)

    @settings(max_examples=60, deadline=None)
    @given(state=count_maps)
    def test_estimate_bounded_by_per_entry_extremes(self, state):
        estimate = count_estimate_from_map(state)
        sizes = [network_size_from_estimate(value) for value in state.values()]
        finite = [size for size in sizes if math.isfinite(size)]
        if not finite:
            assert estimate == math.inf
        elif math.isfinite(estimate):
            # Relative slack: per-entry sizes can reach ~1e308 (tiny map
            # values), where the mean can round a few ulps past the
            # extremes — an absolute epsilon would flake there.
            assert min(finite) * (1 - 1e-12) <= estimate <= max(finite) * (1 + 1e-12)


class TestLeaderElection:
    def test_lead_probability(self):
        election = LeaderElection(concurrent_target=5, estimated_size=100)
        assert election.lead_probability == pytest.approx(0.05)

    def test_probability_capped_at_one(self):
        election = LeaderElection(concurrent_target=50, estimated_size=10)
        assert election.lead_probability == 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            LeaderElection(concurrent_target=0, estimated_size=10)
        with pytest.raises(ConfigurationError):
            LeaderElection(concurrent_target=1, estimated_size=0)

    def test_expected_number_of_leaders(self):
        rng = RandomSource(11)
        election = LeaderElection(concurrent_target=10, estimated_size=500)
        leaders = election.elect(list(range(500)), rng)
        assert 2 <= len(leaders) <= 25  # Poisson(10), generous bounds

    def test_update_estimate(self):
        election = LeaderElection(concurrent_target=3, estimated_size=50)
        election.update_estimate(80.0)
        assert election.estimated_size == 80.0
        election.update_estimate(math.inf)
        assert election.estimated_size == 80.0
        election.update_estimate(-5)
        assert election.estimated_size == 80.0


class TestAdaptiveCount:
    """The Section 5 ledger both practical-protocol engines run on."""

    @staticmethod
    def ledger(estimate=50.0):
        # P_lead = 1: every alive id leads and the election draws nothing.
        return AdaptiveCount(LeaderElection(concurrent_target=100.0, estimated_size=estimate))

    @staticmethod
    def rows(codec, *sizes):
        """One reported row per size: the first leader's entry at 1/size (empty for inf)."""
        leader = codec.leaders[0]
        return np.vstack([
            codec.encode_state({} if math.isinf(size) else {leader: 1.0 / size})
            for size in sizes
        ])

    def test_feedback_only_from_finite_reports(self):
        count = self.ledger()
        codec = count.open_epoch(0, [3, 4], RandomSource(1))
        assert codec.leaders == (3, 4)
        record = count.report(0, count.estimate_rows(0, self.rows(codec, math.inf, math.inf)))
        assert record.dry
        assert count.election.estimated_size == 50.0
        record = count.report(0, count.estimate_rows(0, self.rows(codec, 32.0, math.inf, 16.0)))
        assert (record.reporters, record.finite_reporters) == (5, 2)
        assert (record.min_estimate, record.mean_estimate, record.max_estimate) == (16.0, 24.0, 32.0)
        assert count.election.estimated_size == 24.0
        assert record.size_estimate == 24.0

    def test_newest_epoch_drives_the_feedback(self):
        count = self.ledger()
        old = count.open_epoch(0, [1, 2], RandomSource(1))
        new = count.open_epoch(1, [1, 2], RandomSource(2))
        count.report(1, count.estimate_rows(1, self.rows(new, 16.0)))
        # A late report to the older, overlapping epoch adopts its own
        # estimate but leaves the election on the newer one.
        count.report(0, count.estimate_rows(0, self.rows(old, 64.0)))
        assert count.election.estimated_size == 16.0
        assert [record.size_estimate for record in count.epoch_records()] == [64.0, 16.0]

    def test_jump_reporters_are_counted(self):
        count = self.ledger()
        codec = count.open_epoch(0, [1], RandomSource(1))
        count.report(0, count.estimate_rows(0, self.rows(codec, 8.0, 8.0)), jumped=True)
        record = count.report(0, count.estimate_rows(0, self.rows(codec, 8.0)))
        assert (record.reporters, record.jump_reporters, record.finite_reporters) == (3, 2, 3)

    def test_dry_epochs_carry_the_estimate_forward(self):
        count = self.ledger(estimate=50.0)
        dry = count.open_epoch(0, [], RandomSource(1))
        assert (dry.leaders, dry.state_width()) == ((), 0)
        count.report(0, count.estimate_rows(0, np.zeros((4, 0))))
        led = count.open_epoch(1, [5], RandomSource(2))
        count.open_epoch(2, [], RandomSource(3))
        records = count.epoch_records()
        assert [record.size_estimate for record in records] == [50.0, 50.0, 50.0]
        # Epoch 1 reports after epoch 2 opened: the dry epoch after it
        # now carries epoch 1's estimate.
        count.report(1, count.estimate_rows(1, self.rows(led, 32.0)))
        assert [record.dry for record in records] == [True, False, True]
        assert [record.size_estimate for record in records] == [50.0, 32.0, 32.0]
        assert (records[0].reporters, records[0].mean_estimate) == (4, math.inf)
        assert (records[0].min_estimate, records[0].max_estimate) == (math.inf, -math.inf)

"""Property-based tests for the communication models.

Covers the three contracts the asynchronous engine leans on: the
inclusive timeout boundary of ``classify_async_exchanges``, the batched
``classify_exchanges`` being bit-identical to a stage-major scalar loop
from the same seed, and validation of malformed probabilities and delay
configurations.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.common.rng import RandomSource
from repro.simulator.transport import (
    DelayModel,
    OUTCOME_COMPLETED,
    OUTCOME_DROPPED,
    OUTCOME_RESPONSE_LOST,
    TransportModel,
    classify_async_exchanges,
)

probabilities = st.floats(0.0, 1.0, allow_nan=False)
delays = st.floats(0.0, 10.0, allow_nan=False)


def completes_within_timeout(delay: float, timeout: float) -> bool:
    """Whether a perfect exchange with a fixed one-way ``delay`` beats ``timeout``."""
    model = DelayModel(min_delay=delay, max_delay=delay, timeout=timeout)
    outcomes, delivered = classify_async_exchanges(TransportModel(), model, RandomSource(0), 4)
    assert delivered.all()
    assert len(set(outcomes.tolist())) == 1
    return bool(outcomes[0] == OUTCOME_COMPLETED)


class TestRoundTripTimeout:
    @settings(max_examples=80, deadline=None)
    @given(delay=delays, timeout=delays)
    def test_boundary_is_inclusive(self, delay, timeout):
        assert completes_within_timeout(delay, timeout) == ((delay + delay) <= timeout)

    def test_exact_boundary_counts_as_within(self):
        # 0.25 + 0.25 is exactly representable and exactly the timeout.
        assert completes_within_timeout(0.25, 0.5)
        assert not completes_within_timeout(0.250001, 0.5)

    def test_zero_timeout_only_admits_zero_round_trip(self):
        assert completes_within_timeout(0.0, 0.0)
        assert not completes_within_timeout(1e-12, 0.0)


class TestClassifyExchangesBatch:
    @settings(max_examples=60, deadline=None)
    @given(
        link=probabilities,
        loss=probabilities,
        count=st.integers(0, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_bit_identical_to_stage_major_scalar_loop(
        self, link, loss, count, seed
    ):
        """The batch draws stage-major variables: all link-failure uniforms,
        then all request-loss uniforms, then all response-loss uniforms —
        each stage data-independently.  A scalar loop drawing the same
        stages in the same order from the same seed must classify every
        exchange identically, bit for bit."""
        transport = TransportModel(
            link_failure_probability=link, message_loss_probability=loss
        )
        batch = transport.classify_exchanges(RandomSource(seed), count)

        generator = RandomSource(seed).generator
        link_draws = (
            [generator.random() for _ in range(count)] if link > 0.0 else [1.0] * count
        )
        request_draws = (
            [generator.random() for _ in range(count)] if loss > 0.0 else [1.0] * count
        )
        response_draws = (
            [generator.random() for _ in range(count)] if loss > 0.0 else [1.0] * count
        )
        expected = []
        for index in range(count):
            if link > 0.0 and link_draws[index] < link:
                expected.append(OUTCOME_DROPPED)
            elif loss > 0.0 and request_draws[index] < loss:
                expected.append(OUTCOME_DROPPED)
            elif loss > 0.0 and response_draws[index] < loss:
                expected.append(OUTCOME_RESPONSE_LOST)
            else:
                expected.append(OUTCOME_COMPLETED)
        assert batch.tolist() == expected

    @settings(max_examples=30, deadline=None)
    @given(count=st.integers(0, 100), seed=st.integers(0, 2**32 - 1))
    def test_perfect_transport_always_completes(self, count, seed):
        outcomes = TransportModel().classify_exchanges(RandomSource(seed), count)
        assert (outcomes == OUTCOME_COMPLETED).all()

    def test_certain_loss_drops_every_request(self):
        transport = TransportModel(message_loss_probability=1.0)
        outcomes = transport.classify_exchanges(RandomSource(3), 50)
        assert (outcomes == OUTCOME_DROPPED).all()


class TestDelaySampling:
    @settings(max_examples=40, deadline=None)
    @given(
        low=st.floats(0.0, 5.0, allow_nan=False),
        span=st.floats(0.0, 5.0, allow_nan=False),
        count=st.integers(0, 100),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_uniform_batch_matches_scalar_loop(self, low, span, count, seed):
        model = DelayModel(min_delay=low, max_delay=low + span, timeout=1.0)
        batch = model.sample_delays(RandomSource(seed), count)
        scalar_rng = RandomSource(seed)
        scalar = [
            scalar_rng.uniform(low, low + span) if span else low for _ in range(count)
        ]
        assert batch.tolist() == scalar
        assert (batch >= low).all() and (batch <= low + span).all()

    @settings(max_examples=40, deadline=None)
    @given(count=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    def test_lognormal_respects_propagation_floor(self, count, seed):
        model = DelayModel(
            min_delay=0.02, max_delay=0.3, distribution="lognormal", sigma=0.8
        )
        draws = model.sample_delays(RandomSource(seed), count)
        assert (draws >= model.min_delay).all()

    def test_zero_width_uniform_consumes_no_randomness(self):
        model = DelayModel(min_delay=0.05, max_delay=0.05)
        rng = RandomSource(11)
        before = rng.generator.bit_generator.state["state"]["state"]
        draws = model.sample_delays(rng, 32)
        after = rng.generator.bit_generator.state["state"]["state"]
        assert before == after
        assert (draws == 0.05).all()


class TestAsyncClassification:
    def test_infinite_timeout_reduces_to_plain_classification(self):
        transport = TransportModel(message_loss_probability=0.3)
        model = DelayModel(min_delay=0.01, max_delay=0.1, timeout=math.inf)
        seed = 21
        merged, delivered = classify_async_exchanges(transport, model, RandomSource(seed), 100)
        plain = transport.classify_exchanges(RandomSource(seed), 100)
        # Same loss stream (drawn first), and no exchange can time out.
        assert merged.tolist() == plain.tolist()
        assert delivered.tolist() == (plain == OUTCOME_COMPLETED).tolist()

    def test_zero_timeout_turns_completions_into_lost_responses(self):
        transport = TransportModel()
        model = DelayModel(min_delay=0.05, max_delay=0.05, timeout=0.0)
        outcomes, delivered = classify_async_exchanges(transport, model, RandomSource(5), 40)
        assert (outcomes == OUTCOME_RESPONSE_LOST).all()
        # Late replies still physically arrive (and carry their epoch id).
        assert delivered.all()

    def test_dropped_exchanges_stay_dropped_under_timeouts(self):
        transport = TransportModel(message_loss_probability=1.0)
        model = DelayModel(min_delay=0.05, max_delay=0.05, timeout=0.0)
        outcomes, delivered = classify_async_exchanges(transport, model, RandomSource(5), 40)
        assert (outcomes == OUTCOME_DROPPED).all()
        assert not delivered.any()

    def test_draw_count_is_data_independent(self):
        """Latencies are drawn for every exchange regardless of loss fate."""
        transport = TransportModel(message_loss_probability=0.5)
        model = DelayModel(min_delay=0.01, max_delay=0.2, timeout=0.5)
        rng_a = RandomSource(8)
        rng_b = RandomSource(8)
        classify_async_exchanges(transport, model, rng_a, 64)
        transport.classify_exchanges(rng_b, 64)
        model.sample_delays(rng_b, 64)
        model.sample_delays(rng_b, 64)
        state_a = rng_a.generator.bit_generator.state["state"]["state"]
        state_b = rng_b.generator.bit_generator.state["state"]["state"]
        assert state_a == state_b


class TestValidation:
    @settings(max_examples=40, deadline=None)
    @given(probability=st.floats(allow_nan=True))
    def test_invalid_probabilities_rejected(self, probability):
        valid = 0.0 <= probability <= 1.0 and not math.isnan(probability)
        if valid:
            TransportModel(message_loss_probability=probability)
            TransportModel(link_failure_probability=probability)
        else:
            with pytest.raises(Exception):
                TransportModel(message_loss_probability=probability)
            with pytest.raises(Exception):
                TransportModel(link_failure_probability=probability)

    def test_delay_model_rejects_inverted_range(self):
        with pytest.raises(ConfigurationError):
            DelayModel(min_delay=0.5, max_delay=0.1)

    def test_delay_model_rejects_negative_parameters(self):
        with pytest.raises(Exception):
            DelayModel(min_delay=-0.1)
        with pytest.raises(Exception):
            DelayModel(timeout=-1.0)

    def test_delay_model_rejects_unknown_distribution(self):
        with pytest.raises(ConfigurationError):
            DelayModel(distribution="pareto")

    def test_lognormal_needs_positive_median(self):
        with pytest.raises(ConfigurationError):
            DelayModel(min_delay=0.0, max_delay=0.0, distribution="lognormal")
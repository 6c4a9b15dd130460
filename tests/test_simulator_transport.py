"""Tests for the transport (communication failure and delay) models."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import RandomSource
from repro.simulator.transport import (
    PERFECT_TRANSPORT,
    DelayModel,
    ExchangeOutcome,
    TransportModel,
)


class TestTransportModel:
    def test_perfect_transport_always_completes(self):
        rng = RandomSource(1)
        assert PERFECT_TRANSPORT.is_perfect()
        for _ in range(100):
            assert PERFECT_TRANSPORT.classify_exchange(rng) is ExchangeOutcome.COMPLETED

    def test_certain_link_failure_always_drops(self):
        rng = RandomSource(1)
        transport = TransportModel(link_failure_probability=1.0)
        for _ in range(50):
            assert transport.classify_exchange(rng) is ExchangeOutcome.DROPPED

    def test_certain_message_loss_always_drops_request(self):
        rng = RandomSource(1)
        transport = TransportModel(message_loss_probability=1.0)
        for _ in range(50):
            assert transport.classify_exchange(rng) is ExchangeOutcome.DROPPED

    def test_message_loss_produces_response_lost_outcomes(self):
        rng = RandomSource(1)
        transport = TransportModel(message_loss_probability=0.4)
        outcomes = [transport.classify_exchange(rng) for _ in range(3000)]
        dropped = outcomes.count(ExchangeOutcome.DROPPED)
        response_lost = outcomes.count(ExchangeOutcome.RESPONSE_LOST)
        completed = outcomes.count(ExchangeOutcome.COMPLETED)
        # P(drop) = 0.4, P(response lost) = 0.6*0.4 = 0.24, P(complete) = 0.36
        assert dropped / 3000 == pytest.approx(0.4, abs=0.05)
        assert response_lost / 3000 == pytest.approx(0.24, abs=0.05)
        assert completed / 3000 == pytest.approx(0.36, abs=0.05)

    def test_link_failure_rate_respected(self):
        rng = RandomSource(1)
        transport = TransportModel(link_failure_probability=0.3)
        outcomes = [transport.classify_exchange(rng) for _ in range(3000)]
        assert outcomes.count(ExchangeOutcome.DROPPED) / 3000 == pytest.approx(0.3, abs=0.05)

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ConfigurationError):
            TransportModel(link_failure_probability=1.5)
        with pytest.raises(ConfigurationError):
            TransportModel(message_loss_probability=-0.1)

    def test_is_perfect_false_with_any_loss(self):
        assert not TransportModel(message_loss_probability=0.1).is_perfect()
        assert not TransportModel(link_failure_probability=0.1).is_perfect()


class TestDelayModel:
    def test_delays_within_bounds(self):
        rng = RandomSource(2)
        model = DelayModel(min_delay=0.1, max_delay=0.2, timeout=1.0)
        for _ in range(200):
            delay = model.sample_delay(rng)
            assert 0.1 <= delay <= 0.2

    def test_degenerate_delay_range(self):
        rng = RandomSource(2)
        model = DelayModel(min_delay=0.05, max_delay=0.05)
        assert model.sample_delay(rng) == 0.05

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigurationError):
            DelayModel(min_delay=0.5, max_delay=0.1)

    def test_round_trip_within_timeout(self):
        model = DelayModel(min_delay=0.0, max_delay=1.0, timeout=0.5)
        assert model.round_trip_within_timeout(0.2, 0.2)
        assert not model.round_trip_within_timeout(0.4, 0.2)

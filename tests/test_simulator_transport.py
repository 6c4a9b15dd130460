"""Tests for the transport (communication failure and delay) models."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import RandomSource
from repro.simulator.transport import (
    OUTCOME_COMPLETED,
    OUTCOME_DROPPED,
    OUTCOME_RESPONSE_LOST,
    PERFECT_TRANSPORT,
    DelayModel,
    TransportModel,
)


class TestTransportModel:
    def test_perfect_transport_always_completes(self):
        assert PERFECT_TRANSPORT.is_perfect()
        outcomes = PERFECT_TRANSPORT.classify_exchanges(RandomSource(1), 100)
        assert (outcomes == OUTCOME_COMPLETED).all()

    def test_certain_link_failure_always_drops(self):
        transport = TransportModel(link_failure_probability=1.0)
        outcomes = transport.classify_exchanges(RandomSource(1), 50)
        assert (outcomes == OUTCOME_DROPPED).all()

    def test_certain_message_loss_always_drops_request(self):
        transport = TransportModel(message_loss_probability=1.0)
        outcomes = transport.classify_exchanges(RandomSource(1), 50)
        assert (outcomes == OUTCOME_DROPPED).all()

    def test_message_loss_produces_response_lost_outcomes(self):
        transport = TransportModel(message_loss_probability=0.4)
        outcomes = transport.classify_exchanges(RandomSource(1), 3000)
        # P(drop) = 0.4, P(response lost) = 0.6*0.4 = 0.24, P(complete) = 0.36
        assert np.mean(outcomes == OUTCOME_DROPPED) == pytest.approx(0.4, abs=0.05)
        assert np.mean(outcomes == OUTCOME_RESPONSE_LOST) == pytest.approx(0.24, abs=0.05)
        assert np.mean(outcomes == OUTCOME_COMPLETED) == pytest.approx(0.36, abs=0.05)

    def test_link_failure_rate_respected(self):
        transport = TransportModel(link_failure_probability=0.3)
        outcomes = transport.classify_exchanges(RandomSource(1), 3000)
        assert np.mean(outcomes == OUTCOME_DROPPED) == pytest.approx(0.3, abs=0.05)

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
        model = DelayModel(min_delay=0.1, max_delay=0.2, timeout=1.0)
        delays = model.sample_delays(RandomSource(2), 200)
        assert ((0.1 <= delays) & (delays <= 0.2)).all()

    def test_degenerate_delay_range(self):
        model = DelayModel(min_delay=0.05, max_delay=0.05)
        assert model.sample_delays(RandomSource(2), 3).tolist() == [0.05] * 3

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigurationError):
            DelayModel(min_delay=0.5, max_delay=0.1)

"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.common.rng import RandomSource
from repro.topology import (
    TopologySpec,
    build_overlay,
    random_k_out_topology,
)


@pytest.fixture
def rng() -> RandomSource:
    """A deterministic randomness source for tests."""
    return RandomSource(12345)


@pytest.fixture
def small_random_topology(rng):
    """A 60-node random overlay with 8 sampled neighbours per node."""
    return random_k_out_topology(60, 8, rng.child("topology"))


@pytest.fixture
def small_newscast(rng):
    """A 60-node NEWSCAST overlay with cache size 10."""
    return build_overlay(TopologySpec("newscast", degree=10), 60, rng.child("newscast"))


@pytest.fixture(scope="session")
def node_row():
    """``node_row(simulator, node_id)``: one participant's encoded state row.

    Reads the cycle engines' ``state_array()`` (participants in id order),
    so it works on either engine and on a replica view.
    """

    def read(simulator, node_id):
        return simulator.state_array()[simulator.participant_ids().tolist().index(node_id)]

    return read

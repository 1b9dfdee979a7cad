"""Tests for community detection and per-community statistics."""

import numpy as np
import pytest

from repro.core import (
    COMMUNITY_STATISTIC_NAMES,
    Graph,
    community_statistics,
    complete_graph,
    detect_communities,
    path_graph,
    statistic_distributions,
)
from repro.datagen import livejournal_surrogate


@pytest.fixture
def two_cliques() -> Graph:
    """Two K4s joined by one bridge edge."""
    src = [0, 0, 0, 1, 1, 2, 4, 4, 4, 5, 5, 6, 3]
    dst = [1, 2, 3, 2, 3, 3, 5, 6, 7, 6, 7, 7, 4]
    return Graph.from_edges(src, dst)


def test_detect_communities_partitions_vertices(two_cliques):
    comms = detect_communities(two_cliques)
    covered = np.sort(np.concatenate(comms))
    assert np.array_equal(covered, np.arange(8))


def test_detect_communities_finds_cliques(two_cliques):
    comms = detect_communities(two_cliques)
    as_sets = [set(c.tolist()) for c in comms]
    assert {0, 1, 2, 3} in as_sets
    assert {4, 5, 6, 7} in as_sets


@pytest.mark.parametrize("seed", range(8))
def test_detect_communities_is_asynchronous(seed):
    """On one edge, in-place updates settle while synchronous LPA swaps
    the two labels every round and ends on ``[0, 1]`` after 20."""
    from repro.algorithms.reference.lpa import label_propagation

    edge = Graph.from_edges([0], [1], num_vertices=2)
    comms = detect_communities(edge, seed=seed)
    assert [c.tolist() for c in comms] == [[0, 1]]
    assert label_propagation(edge, max_iterations=20).tolist() == [0, 1]


def test_community_statistics_clique(two_cliques):
    stats = community_statistics(two_cliques, np.array([0, 1, 2, 3]))
    assert stats.cc == pytest.approx(1.0)
    assert stats.tpr == pytest.approx(1.0)
    assert stats.diameter == 1
    assert stats.size == 4
    # one bridge edge out of 13 total slots... conductance = cut / vol
    assert 0 < stats.conductance < 0.2
    assert stats.bridge_ratio == 0.0


def test_community_statistics_path():
    g = path_graph(6)
    stats = community_statistics(g, np.arange(6))
    assert stats.cc == 0.0
    assert stats.tpr == 0.0
    assert stats.bridge_ratio == pytest.approx(1.0)  # every path edge is a bridge
    assert stats.diameter == 5
    assert stats.conductance == 0.0  # whole graph


def test_bridge_ratio_cycle_zero():
    from repro.core import cycle_graph
    stats = community_statistics(cycle_graph(6), np.arange(6))
    assert stats.bridge_ratio == 0.0


def test_statistic_distributions_keys(two_cliques):
    dists = statistic_distributions(two_cliques, min_size=3)
    assert set(dists) == set(COMMUNITY_STATISTIC_NAMES)
    for values in dists.values():
        assert values.shape[0] == 2  # two K4 communities


def test_statistic_distributions_min_size_filter():
    g = Graph.from_edges([0, 2], [1, 3], num_vertices=4)
    dists = statistic_distributions(g, min_size=3)
    assert dists["size"].size == 0


def test_surrogate_has_many_communities():
    g = livejournal_surrogate(600, seed=7).graph
    comms = detect_communities(g)
    big = [c for c in comms if c.size >= 3]
    assert len(big) >= 5

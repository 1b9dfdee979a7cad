"""Grape BC and KC against their per-vertex specifications.

:func:`~repro.platforms.block_centric.algorithms.bc_blocks` meters the
Brandes levels in bulk; :func:`task_loops.brandes_blocks_loop` charges
block by block and sends one message per cut DAG edge, with the same
``np.add.at`` accumulation, so values and WorkTraces must match bit for
bit.  :func:`~repro.platforms.block_centric.algorithms.kc_blocks` runs
the level-synchronous expansion census; :func:`task_loops.clique_loop`
is the per-root depth-first search it replaces.
"""

import numpy as np
import pytest

from repro.cluster import NUM_PARTS, TraceRecorder, single_machine
from repro.core import Graph, path_graph, random_graph, star_graph
from repro.platforms import get_platform
from repro.platforms.block_centric.engine import BlockCentricEngine
from task_loops import (
    assert_one_wave,
    assert_traces_identical,
    brandes_blocks_loop,
    clique_loop,
)


def _clustered_graph() -> Graph:
    rng = np.random.default_rng(11)
    src, dst = [], []
    for c in range(5):
        base = c * 12
        for i in range(12):
            for j in range(i + 1, 12):
                if rng.random() < 0.7:
                    src.append(base + i)
                    dst.append(base + j)
        if c:
            src.append(base - 1)
            dst.append(base)
    return Graph.from_edges(src, dst, num_vertices=60, directed=False)


RANDOM = random_graph(200, 900, seed=13)
CLUSTERED = _clustered_graph()
PATH = path_graph(40)
STAR = star_graph(9)
EMPTY = Graph.from_edges([], [], num_vertices=8, directed=False)
GRAPHS = [RANDOM, CLUSTERED, PATH, STAR, EMPTY]
GRAPH_IDS = ["random", "clustered", "path", "star", "empty"]


def _assert_bc_matches_loop(graph, source=0):
    recorder = TraceRecorder(NUM_PARTS)
    expected = brandes_blocks_loop(BlockCentricEngine(graph, recorder), source)
    run = get_platform("Grape").run("bc", graph, single_machine(),
                                    source=source)
    assert np.array_equal(np.asarray(run.values), expected)
    assert_traces_identical(run.trace, recorder.trace)


def _assert_same_as_forced_modes(algorithm, graph, **params):
    """Grape has one path; ``engine_mode`` is accepted and changes
    nothing."""
    platform = get_platform("Grape")
    auto = platform.run(algorithm, graph, single_machine(), **params)
    for mode in ("bulk", "scalar"):
        forced = platform.run(algorithm, graph, single_machine(),
                              engine_mode=mode, **params)
        assert np.array_equal(np.asarray(forced.values),
                              np.asarray(auto.values))
        assert_traces_identical(forced.trace, auto.trace)


class TestBlockBCParity:
    @pytest.mark.parametrize("graph", GRAPHS, ids=GRAPH_IDS)
    def test_trace_and_values_identical(self, graph):
        _assert_bc_matches_loop(graph)

    def test_nonzero_source(self):
        _assert_bc_matches_loop(RANDOM, source=17)

    def test_auto_mode_takes_bulk(self):
        _assert_same_as_forced_modes("bc", RANDOM)


class TestBlockKCParity:
    @pytest.mark.parametrize("graph", GRAPHS, ids=GRAPH_IDS)
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_trace_and_count_identical(self, graph, k):
        run = get_platform("Grape").run("kc", graph, single_machine(), k=k)
        owner = BlockCentricEngine(graph, TraceRecorder(NUM_PARTS)).block_of
        total, ops, pulls, _ = clique_loop(graph, owner, NUM_PARTS, k)
        assert run.values == total
        assert_one_wave(run.trace, graph, owner, ops, pulls)

    def test_auto_mode_takes_bulk(self):
        _assert_same_as_forced_modes("kc", CLUSTERED)

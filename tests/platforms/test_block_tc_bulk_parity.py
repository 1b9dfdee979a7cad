"""Grape TC against its per-vertex specification.

Grape counts triangles with one array census
(:func:`~repro.platforms.kernels.triangle_census`).  These tests diff
whole Grape runs against :func:`task_loops.triangle_loop`, which roots
one task per forward edge at the edge's block: the same triangle
total, the same per-block ops, and one message per (block, remote
vertex) pull carrying that vertex's forward list.  They also pin the
forward-edge flat view against the list-of-arrays form it mirrors.
"""

import numpy as np
import pytest

from repro.cluster import NUM_PARTS, TraceRecorder, single_machine
from repro.core import Graph, path_graph, random_graph, star_graph
from repro.platforms import get_platform
from repro.platforms.block_centric.engine import BlockCentricEngine
from repro.platforms.kernels import forward_edge_arrays
from task_loops import (
    assert_one_wave,
    assert_traces_identical,
    forward_adjacency,
    triangle_loop,
)


def _clustered_graph() -> Graph:
    """Many triangles spread across blocks: dense 12-cliques chained by
    bridge edges, so intersections are non-trivial and pulls cross
    block boundaries."""
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
TRIANGLE_FREE = path_graph(40)
STAR = star_graph(9)


def _assert_matches_loop(graph):
    run = get_platform("Grape").run("tc", graph, single_machine())
    owner = BlockCentricEngine(graph, TraceRecorder(NUM_PARTS)).block_of
    corners, ops, pulls, _ = triangle_loop(graph, owner, NUM_PARTS)
    assert run.values == len(corners)
    assert_one_wave(run.trace, graph, owner, ops, pulls)
    return run


class TestBlockTCParity:
    """Whole-platform Grape TC runs diffed against the task loop."""

    @pytest.mark.parametrize(
        "graph",
        [RANDOM, CLUSTERED, TRIANGLE_FREE, STAR],
        ids=["random", "clustered", "triangle-free", "star"],
    )
    def test_trace_and_count_identical(self, graph):
        _assert_matches_loop(graph)

    def test_auto_mode_matches_bulk_and_scalar(self):
        """Grape has one TC path; ``engine_mode`` is accepted and
        changes nothing."""
        platform = get_platform("Grape")
        auto = platform.run("tc", RANDOM, single_machine())
        for mode in ("bulk", "scalar"):
            forced = platform.run("tc", RANDOM, single_machine(),
                                  engine_mode=mode)
            assert forced.values == auto.values
            assert_traces_identical(forced.trace, auto.trace)

    def test_empty_graph(self):
        empty = Graph.from_edges([], [], num_vertices=8, directed=False)
        run = _assert_matches_loop(empty)
        assert run.values == 0


class TestForwardEdgeArrays:
    """The flat CSR forward view mirrors the list-of-arrays form."""

    @pytest.mark.parametrize(
        "graph",
        [RANDOM, CLUSTERED, TRIANGLE_FREE, STAR],
        ids=["random", "clustered", "triangle-free", "star"],
    )
    def test_matches_forward_adjacency(self, graph):
        indptr, src, dst = forward_edge_arrays(graph)
        lists = forward_adjacency(graph)
        assert indptr.shape[0] == graph.num_vertices + 1
        for v, fv in enumerate(lists):
            seg = dst[indptr[v]:indptr[v + 1]]
            assert np.array_equal(seg, fv)
            assert (src[indptr[v]:indptr[v + 1]] == v).all()

    def test_keys_are_sorted(self):
        _, src, dst = forward_edge_arrays(RANDOM)
        keys = src * RANDOM.num_vertices + dst
        assert (np.diff(keys) > 0).all()

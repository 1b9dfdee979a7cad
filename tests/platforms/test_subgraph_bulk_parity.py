"""G-thinker TC, KC and LCC against their per-task specifications.

Each algorithm runs as one wave of tasks computed by an array census
over the flat forward CSR.  These tests diff whole G-thinker runs
against :mod:`task_loops` — one task per forward edge (TC, LCC) or per
root (KC), rooted at the vertex's hash-placed worker — comparing
results, per-worker ops, pull messages and the pull cache's hit/miss
counters.  They also pin the edge-case semantics: degree-0/1 vertices
get LCC 0.0 (never NaN), and self-loops close no triangle or clique.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import Graph, path_graph, random_graph, star_graph
from repro.cluster import single_machine
from repro.cluster.cost import NUM_PARTS, TraceRecorder
from repro.errors import GraphStructureError
from repro.platforms import get_platform
from repro.platforms.block_centric.algorithms import kc_blocks
from repro.platforms.block_centric.engine import BlockCentricEngine
from repro.platforms.kernels import clustering_coefficients
from repro.platforms.subgraph_centric.engine import SubgraphCentricEngine
from task_loops import (
    assert_one_wave,
    assert_traces_identical,
    clique_loop,
    corner_credits,
    triangle_loop,
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
TRIANGLE_FREE = path_graph(40)
STAR = star_graph(9)
EMPTY = Graph.from_edges([], [], num_vertices=8, directed=False)
GRAPHS = [RANDOM, CLUSTERED, TRIANGLE_FREE, STAR, EMPTY]
GRAPH_IDS = ["random", "clustered", "triangle-free", "star", "empty"]


def _loopy_graph() -> Graph:
    """A triangle with self-loops kept, plus isolated and degree-1
    vertices."""
    src = [0, 1, 0, 0, 2, 3]
    dst = [1, 2, 2, 0, 2, 4]
    return Graph.from_edges(
        src, dst, num_vertices=7, directed=False, drop_self_loops=False
    )


def _owner(graph):
    return SubgraphCentricEngine(graph, TraceRecorder(NUM_PARTS)).owner


def _assert_matches_loop(algorithm, graph, **params):
    """Diff one G-thinker run against its task loop."""
    owner = _owner(graph)
    if algorithm == "kc":
        expected, ops, pulls, _ = clique_loop(graph, owner, NUM_PARTS,
                                              params["k"])
    else:
        corners, ops, pulls, _ = triangle_loop(graph, owner, NUM_PARTS)
        expected = len(corners)
        if algorithm == "lcc":
            expected = clustering_coefficients(
                graph, corner_credits(corners, graph.num_vertices)
            )
    run = get_platform("G-thinker").run(algorithm, graph, single_machine(),
                                        **params)
    assert np.array_equal(np.asarray(run.values), np.asarray(expected))
    assert_one_wave(run.trace, graph, owner, ops, pulls)


class TestSubgraphParity:
    """Whole-platform G-thinker runs diffed against the task loops."""

    @pytest.mark.parametrize("graph", GRAPHS, ids=GRAPH_IDS)
    def test_tc(self, graph):
        _assert_matches_loop("tc", graph)

    @pytest.mark.parametrize("graph", GRAPHS, ids=GRAPH_IDS)
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_kc(self, graph, k):
        _assert_matches_loop("kc", graph, k=k)

    @pytest.mark.parametrize("graph", GRAPHS, ids=GRAPH_IDS)
    def test_lcc(self, graph):
        _assert_matches_loop("lcc", graph)

    def test_loopy_graph_parity(self):
        for algorithm, params in [("tc", {}), ("kc", {"k": 3}), ("lcc", {})]:
            _assert_matches_loop(algorithm, _loopy_graph(), **params)

    def test_auto_mode_takes_bulk(self):
        """G-thinker has one wave per algorithm; ``engine_mode`` is
        accepted and changes nothing."""
        platform = get_platform("G-thinker")
        auto = platform.run("tc", RANDOM, single_machine())
        for mode in ("bulk", "scalar"):
            forced = platform.run("tc", RANDOM, single_machine(),
                                  engine_mode=mode)
            assert forced.values == auto.values
            assert_traces_identical(forced.trace, auto.trace)

    def test_cache_counters_match(self):
        """One miss per unique (worker, remote vertex) pull, one hit per
        repeated request, as the task loop counts them."""
        _, _, pulls, calls = clique_loop(CLUSTERED, _owner(CLUSTERED),
                                         NUM_PARTS, 4)
        with obs.tracing() as tracer:
            get_platform("G-thinker").run(
                "kc", CLUSTERED, single_machine(), k=4
            )
        totals = tracer.counters.snapshot()
        assert totals.get(obs.CACHE_MISSES, 0.0) == len(pulls)
        assert totals.get(obs.CACHE_HITS, 0.0) == calls - len(pulls)
        assert calls > len(pulls) > 0

    def test_kc_rejects_small_k_on_both_paths(self):
        """k < 3 raises on both engines that run the clique census."""
        engine = SubgraphCentricEngine(STAR, TraceRecorder(NUM_PARTS))
        with pytest.raises(GraphStructureError):
            engine.count_k_cliques(2)
        with pytest.raises(GraphStructureError):
            kc_blocks(BlockCentricEngine(STAR, TraceRecorder(NUM_PARTS)), k=2)


class TestSubgraphEdgeCases:
    """Degree-0/1 and self-loop semantics (regression: these produced
    NaN coefficients and phantom triangles/cliques)."""

    def test_isolated_and_leaf_vertices_get_zero_lcc(self):
        result = get_platform("G-thinker").run(
            "lcc", _loopy_graph(), single_machine()
        )
        lcc = np.asarray(result.values)
        assert not np.isnan(lcc).any()
        assert lcc[4] == 0.0  # degree 1
        assert lcc[5] == 0.0  # isolated
        assert lcc[6] == 0.0  # isolated

    def test_self_loops_close_no_triangle(self):
        result = get_platform("G-thinker").run(
            "tc", _loopy_graph(), single_machine()
        )
        assert result.values == 1  # only (0, 1, 2)

    def test_self_loops_join_no_clique(self):
        result = get_platform("G-thinker").run(
            "kc", _loopy_graph(), single_machine(), k=3
        )
        assert result.values == 1

    def test_looped_vertex_lcc_uses_simple_degree(self):
        """Vertex 0 has simple degree 2 (loop slot excluded) and sits in
        one triangle, so its coefficient is exactly 1.0."""
        result = get_platform("G-thinker").run(
            "lcc", _loopy_graph(), single_machine()
        )
        assert np.asarray(result.values)[0] == 1.0


class TestPullCacheScope:
    """The pull cache dedupes within one wave and re-meters across
    waves (regression: the cache used to persist across waves, so a
    second wave's pulls were silently free)."""

    def test_repeat_pull_within_phase_charges_once(self):
        """On a star every leaf's forward list holds the hub, so each
        worker requests the hub once per local leaf but ships it once."""
        recorder = TraceRecorder(NUM_PARTS)
        engine = SubgraphCentricEngine(STAR, recorder)
        _, _, pulls, calls = triangle_loop(STAR, engine.owner, NUM_PARTS)
        engine.count_triangles()
        (step,) = recorder.trace.steps
        assert step.msg_count.sum() == len(pulls) < calls

    def test_pull_in_two_phases_charges_twice(self):
        recorder = TraceRecorder(NUM_PARTS)
        engine = SubgraphCentricEngine(STAR, recorder)
        for _ in range(2):
            engine.count_triangles()
        trace = recorder.trace
        assert trace.supersteps == 2
        assert trace.steps[0].msg_count.sum() > 0
        assert np.array_equal(
            trace.steps[0].msg_count, trace.steps[1].msg_count
        )
        assert np.array_equal(
            trace.steps[0].msg_bytes, trace.steps[1].msg_bytes
        )

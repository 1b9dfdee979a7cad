"""Edge-case tests for the block-, edge-, and subgraph-centric engines."""

import numpy as np
import pytest

from repro import obs
from repro.cluster import NUM_PARTS, TraceRecorder, single_machine
from repro.core import Graph, path_graph, random_graph
from repro.platforms import get_platform, get_profile
from repro.platforms.block_centric.algorithms import _cut_matrix
from repro.platforms.block_centric.engine import BlockCentricEngine
from repro.platforms.edge_centric.engine import EdgeCentricEngine, EdgePlacement
from repro.platforms.edge_centric.programs import SSSPGAS
from repro.platforms.subgraph_centric.engine import SubgraphCentricEngine


class TestBlockEngine:
    def test_cut_edges_on_block_boundaries_only(self):
        g = path_graph(64)
        engine = BlockCentricEngine(g, TraceRecorder(NUM_PARTS))
        cut = _cut_matrix(engine)
        # a 64-vertex path over 16 blocks: exactly 15 boundary edges,
        # each cut once per direction between neighbouring blocks
        assert cut.sum() == 30
        blocks = np.arange(NUM_PARTS - 1)
        assert (cut[blocks, blocks + 1] == 1).all()
        assert (cut[blocks + 1, blocks] == 1).all()

    def test_cd_cascade_crosses_blocks(self):
        """A path's peeling cascade unravels across every block; the
        result must still match the reference."""
        from repro.algorithms.reference import core_decomposition
        g = path_graph(80)
        result = get_platform("Grape").run("cd", g, single_machine())
        assert np.array_equal(result.values, core_decomposition(g))
        # the cascade crosses 16 blocks: multiple IncEval rounds
        assert result.metrics.supersteps > 3

    def test_wcc_merges_chain_of_blocks(self):
        from repro.algorithms.reference import wcc
        g = path_graph(200)
        result = get_platform("Grape").run("wcc", g, single_machine())
        assert np.array_equal(result.values, wcc(g))


class TestGASEngine:
    def test_scatter_activates_neighbors_only_on_change(self):
        g = path_graph(30)
        placement = EdgePlacement(g, NUM_PARTS)
        recorder = TraceRecorder(NUM_PARTS)
        engine = EdgeCentricEngine(g, placement, recorder,
                                   get_profile("PowerGraph"))
        program = SSSPGAS(source=0)
        engine.run(program, max_iterations=100)
        # a 30-vertex path relaxes one hop per iteration
        assert recorder.trace.supersteps >= 29
        assert np.array_equal(program.dist, np.arange(30, dtype=float))

    def test_isolated_vertices_have_master(self):
        g = Graph.from_edges([0], [1], num_vertices=5)
        placement = EdgePlacement(g, 4)
        assert placement.master.shape[0] == 5
        assert 0 <= placement.master[4] < 4

    def test_replica_parts_subset_of_neighbor_parts(self):
        g = random_graph(80, 300, seed=1)
        placement = EdgePlacement(g, 8)
        for v in range(g.num_vertices):
            replicas = set(placement.replica_parts[v].tolist())
            parts = set(placement.neighbor_parts[v].tolist())
            assert replicas == parts


class TestSubgraphEngine:
    def test_adjacency_pulled_once_per_worker(self):
        g = random_graph(100, 400, seed=2)
        recorder = TraceRecorder(NUM_PARTS)
        with obs.tracing() as tracer:
            SubgraphCentricEngine(g, recorder).count_triangles()
        misses = tracer.counters.get(obs.CACHE_MISSES)
        assert recorder.trace.total_messages == misses
        assert tracer.counters.get(obs.CACHE_HITS) > 0  # repeats are free

    def test_local_pull_is_free(self):
        g = random_graph(50, 150, seed=3)
        recorder = TraceRecorder(1)  # one worker owns every vertex
        engine = SubgraphCentricEngine(g, recorder)
        assert engine.count_triangles() > 0
        assert recorder.trace.total_ops > 0
        assert recorder.trace.total_messages == 0

    def test_kc_rejects_small_k(self):
        from repro.errors import GraphStructureError
        g = path_graph(5)
        engine = SubgraphCentricEngine(g, TraceRecorder(NUM_PARTS))
        with pytest.raises(GraphStructureError):
            engine.count_k_cliques(2)


class TestVertexEngineEdgeCases:
    def test_push_pull_discount_only_on_dense_frontiers(self):
        """Sparse frontiers (SSSP waves) pay full message cost even on
        push/pull platforms; dense ones (PR) get the discount."""
        g = path_graph(400)
        flash = get_platform("Flash")
        ligra = get_platform("Ligra")
        # dense-frontier PR: push/pull platforms cheaper per message
        pr_flash = flash.run("pr", g, single_machine())
        assert pr_flash.metrics.compute_ops > 0
        # sparse-frontier SSSP on a path: frontier of 1 vertex
        sssp = ligra.run("sssp", g, single_machine())
        assert sssp.metrics.supersteps >= 399

    def test_weighted_sssp_individual_sends(self):
        from repro.algorithms.reference import dijkstra
        from repro.datagen import exponential_weights
        g = exponential_weights(random_graph(60, 200, seed=5), seed=1)
        result = get_platform("Pregel+").run("sssp", g, single_machine())
        assert np.allclose(result.values, dijkstra(g, 0), equal_nan=True)

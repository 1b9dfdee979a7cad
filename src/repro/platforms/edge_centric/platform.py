"""PowerGraph: the edge-centric platform.

Six algorithms run through the GAS engine; TC and KC use dedicated
routines — per-edge intersection for TC (which the paper says the
edge-centric model handles), and a master-routed clique expansion for KC
(which it handles badly; the metering reflects that).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.cluster.cost import NUM_PARTS, TraceRecorder
from repro.core.graph import Graph
from repro.platforms.base import Platform
from repro.platforms.common import EngineOptions
from repro.platforms.kernels import (
    cached_kernel,
    clustering_coefficients,
    forward_adjacency,
)
from repro.platforms.edge_centric.engine import EdgeCentricEngine, EdgePlacement
from repro.platforms.edge_centric.programs import (
    BCBackwardGAS,
    BCForwardGAS,
    CoreDecompositionGAS,
    LabelPropagationGAS,
    PageRankGAS,
    SSSPGAS,
    WCCGAS,
)
from repro.platforms.profile import PlatformProfile

__all__ = ["EdgeCentricPlatform"]


def _simple_sorted_neighbors(graph: Graph, v: int) -> np.ndarray:
    """Sorted neighbours of ``v`` with any self-loop slot removed."""
    neigh = graph.neighbors(v)
    return np.sort(neigh[neigh != v])


class EdgeCentricPlatform(Platform):
    """PowerGraph personality on the GAS engine."""

    def __init__(self, profile: PlatformProfile) -> None:
        super().__init__(profile)

    def algorithms(self) -> list[str]:
        """PowerGraph supports all eight core algorithms."""
        return ["pr", "lpa", "sssp", "wcc", "bc", "cd", "tc", "kc"]

    def extended_algorithms(self) -> list[str]:
        """LDBC's remaining algorithms, for the suite comparison."""
        return ["bfs", "lcc"]

    def _working_set_extra_bytes(self, algorithm: str, graph: Graph) -> float:
        """Adjacency-shipping buffers for TC/KC (vertex-cut replicas
        hold copies, hence the replication multiplier)."""
        if algorithm not in ("tc", "kc"):
            return 0.0
        from repro.platforms.base import SUBGRAPH_MEMORY_COMPENSATION
        from repro.platforms.common import adjacency_shipping_bytes

        payload, envelope = adjacency_shipping_bytes(
            graph, envelope_bytes=self.profile.cost.bytes_per_message_overhead
        )
        total = (payload + envelope) * self.profile.replication_factor
        if algorithm == "kc":
            total *= 2.0
        return total * SUBGRAPH_MEMORY_COMPENSATION

    def _execute(
        self,
        algorithm: str,
        graph: Graph,
        recorder: TraceRecorder,
        params: dict,
        options: EngineOptions,
    ) -> Any:
        # The greedy vertex-cut is deterministic in (graph, NUM_PARTS),
        # so repeat cases on the same graph reuse one placement.
        placement = cached_kernel(
            graph, ("edge-placement", NUM_PARTS),
            lambda: EdgePlacement(graph, NUM_PARTS),
        )
        # AUTO routes bulk-capable programs (PR/LPA/SSSP/WCC-HashMin)
        # through the vectorized bulk GAS path; SCALAR/BULK force one
        # path (the parity tests diff the two).
        engine = EdgeCentricEngine(
            graph, placement, recorder, self.profile, mode=options.mode.value
        )

        if algorithm == "pr":
            program = PageRankGAS(
                damping=params.get("damping", 0.85),
                iterations=params.get("iterations", 10),
            )
            engine.run(program)
            return program.ranks

        if algorithm == "lpa":
            program = LabelPropagationGAS(iterations=params.get("iterations", 10))
            engine.run(program)
            return program.labels

        if algorithm == "sssp":
            program = SSSPGAS(source=params.get("source", 0))
            engine.run(program, max_iterations=graph.num_vertices + 2)
            return program.dist

        if algorithm == "wcc":
            program = WCCGAS()
            engine.run(program, max_iterations=graph.num_vertices + 2)
            return program.labels

        if algorithm == "bc":
            source = params.get("source", 0)
            forward = BCForwardGAS(source=source)
            engine.run(forward, max_iterations=graph.num_vertices + 2)
            backward = BCBackwardGAS(forward)
            engine.run(backward)
            delta = backward.delta.copy()
            delta[source] = 0.0
            return delta

        if algorithm == "cd":
            program = CoreDecompositionGAS()
            engine.run(program, max_iterations=4 * graph.num_vertices + 16)
            return program.coreness

        if algorithm == "bfs":
            from repro.platforms.edge_centric.programs import BFSGAS

            bfs_program = BFSGAS(source=params.get("source", 0))
            engine.run(bfs_program, max_iterations=graph.num_vertices + 2)
            return bfs_program.levels

        if algorithm == "lcc":
            return self._local_clustering(graph, recorder, placement)

        if algorithm == "tc":
            return self._triangle_count(graph, recorder, placement)

        if algorithm == "kc":
            return self._k_clique_count(
                graph, recorder, placement, params.get("k", 4)
            )

        raise AssertionError(f"unhandled algorithm {algorithm!r}")

    # ------------------------------------------------------------------

    def _triangle_count(
        self, graph: Graph, recorder: TraceRecorder, placement: EdgePlacement
    ) -> int:
        """Per-edge common-neighbour counting.

        Each edge's part needs both endpoints' adjacency lists (shipped
        from the endpoint masters), then intersects them locally —
        "only one edge and its two endpoints are needed" (Section 3.3).
        """
        und = graph.to_undirected()
        # Self-loops are stripped from the shipped lists: u in its own
        # list would land in every intersection at u, minting phantom
        # triangles (u, u, w).
        adjacency = [
            _simple_sorted_neighbors(und, v) for v in range(und.num_vertices)
        ]
        src, dst, _ = und.edge_arrays()
        rng = np.random.default_rng(29)
        edge_parts = rng.integers(0, NUM_PARTS, size=src.shape[0])
        total = 0
        recorder.begin_superstep()
        for u, v, p in zip(src.tolist(), dst.tolist(), edge_parts.tolist()):
            if u == v:
                continue  # a loop edge closes no triangle
            au, av = adjacency[u], adjacency[v]
            mu, mv = int(placement.master[u]), int(placement.master[v])
            if mu != p:
                recorder.add_message(mu, p, 8.0 * au.size)
            if mv != p:
                recorder.add_message(mv, p, 8.0 * av.size)
            recorder.add_compute(p, float(au.size + av.size))
            total += int(np.intersect1d(au, av, assume_unique=True).size)
        recorder.end_superstep()
        return total // 3

    def _local_clustering(
        self, graph: Graph, recorder: TraceRecorder, placement: EdgePlacement
    ):
        """LCC via per-edge intersection with corner crediting.

        Each edge's intersection counts the triangles containing it; the
        endpoints and every common neighbour earn one credit, so each
        vertex collects three credits per incident triangle.
        """
        und = graph.to_undirected()
        n = und.num_vertices
        adjacency = [_simple_sorted_neighbors(und, v) for v in range(n)]
        src, dst, _ = und.edge_arrays()
        rng = np.random.default_rng(31)
        edge_parts = rng.integers(0, NUM_PARTS, size=src.shape[0])
        credits = np.zeros(n, dtype=np.int64)
        recorder.begin_superstep()
        for u, v, p in zip(src.tolist(), dst.tolist(), edge_parts.tolist()):
            if u == v:
                continue  # a loop edge closes no triangle
            au, av = adjacency[u], adjacency[v]
            mu, mv = int(placement.master[u]), int(placement.master[v])
            if mu != p:
                recorder.add_message(mu, p, 8.0 * au.size)
            if mv != p:
                recorder.add_message(mv, p, 8.0 * av.size)
            recorder.add_compute(p, float(au.size + av.size))
            common = np.intersect1d(au, av, assume_unique=True)
            if common.size:
                credits[u] += common.size
                credits[v] += common.size
                credits[common] += 1
                # credits to third corners travel to their masters
                for w in common.tolist():
                    recorder.add_message(p, int(placement.master[w]), 8.0)
        recorder.end_superstep()
        return clustering_coefficients(und, credits / 3.0)

    def _k_clique_count(
        self,
        graph: Graph,
        recorder: TraceRecorder,
        placement: EdgePlacement,
        k: int,
    ) -> int:
        """Clique expansion with master-to-master routing of partial
        cliques — expressible on PowerGraph but communication-heavy,
        the paper's "inadequate for more complex subgraphs"."""
        forward = forward_adjacency(graph)
        masters = placement.master
        total = 0
        frontier: list[tuple[int, int, np.ndarray]] = []  # (owner, size, cands)
        recorder.begin_superstep()
        for v in range(graph.num_vertices):
            fv = forward[v]
            recorder.add_compute(int(masters[v]), float(fv.size))
            for u in fv.tolist():
                recorder.add_message(
                    int(masters[v]), int(masters[u]), 8.0 * (1 + fv.size)
                )
                frontier.append((u, 1, fv))
        recorder.end_superstep()

        while frontier:
            recorder.begin_superstep()
            next_frontier: list[tuple[int, int, np.ndarray]] = []
            for v, size, candidates in frontier:
                fv = forward[v]
                recorder.add_compute(
                    int(masters[v]), float(candidates.size + fv.size)
                )
                narrowed = np.intersect1d(candidates, fv, assume_unique=True)
                new_size = size + 1
                if new_size == k - 1:
                    total += int(narrowed.size)
                    continue
                if narrowed.size < k - new_size - 1:
                    continue
                for w in narrowed.tolist():
                    recorder.add_message(
                        int(masters[v]), int(masters[w]),
                        8.0 * (1 + narrowed.size),
                    )
                    next_frontier.append((w, new_size, narrowed))
            recorder.end_superstep()
            frontier = next_frontier
        return total

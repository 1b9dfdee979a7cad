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
from repro.platforms.common import EngineOptions, subgraph_buffer_bytes
from repro.platforms.kernels import (
    cached_kernel,
    clique_expansion_levels,
    closed_wedge_corners,
    clustering_coefficients,
    forward_edge_arrays,
    message_matrices,
    simple_degrees,
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
        """TC/KC adjacency-shipping buffers
        (:func:`~repro.platforms.common.subgraph_buffer_bytes`)."""
        return subgraph_buffer_bytes(self.profile, algorithm, graph)

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
        Every triangle is found once at each of its three edges.
        """
        recorder.begin_superstep()
        _ship_endpoint_lists(graph, recorder, placement.master, seed=29)
        recorder.end_superstep()
        v, _, _ = closed_wedge_corners(
            *forward_edge_arrays(graph), graph.num_vertices
        )
        return int(v.size)

    def _local_clustering(
        self, graph: Graph, recorder: TraceRecorder, placement: EdgePlacement
    ):
        """LCC via per-edge intersection with corner crediting.

        Each edge's intersection counts the triangles containing it; the
        endpoints and every common neighbour earn one credit, so each
        vertex collects three credits per incident triangle.  Credits to
        a common neighbour travel from the edge's part to its master.
        """
        n = graph.num_vertices
        masters = placement.master
        recorder.begin_superstep()
        src, dst, edge_parts = _ship_endpoint_lists(
            graph, recorder, masters, seed=31
        )
        v, u, w = closed_wedge_corners(*forward_edge_arrays(graph), n)
        # Each triangle meets its three edges, each with the opposite
        # corner as the one common neighbour it credits remotely.
        a = np.concatenate([v, u, v])
        b = np.concatenate([u, w, w])
        third = np.concatenate([w, v, u])
        edge_keys = src * n + dst
        order = np.argsort(edge_keys, kind="stable")
        edge = order[np.searchsorted(
            edge_keys[order], np.minimum(a, b) * n + np.maximum(a, b)
        )]
        recorder.add_message_counts(*message_matrices(
            edge_parts[edge], masters[third], 8.0, recorder.parts
        ))
        recorder.end_superstep()
        triangles = np.bincount(np.concatenate([v, u, w]), minlength=n)
        return clustering_coefficients(graph, triangles)

    def _k_clique_count(
        self,
        graph: Graph,
        recorder: TraceRecorder,
        placement: EdgePlacement,
        k: int,
    ) -> int:
        """Clique expansion with master-to-master routing of partial
        cliques — expressible on PowerGraph but communication-heavy,
        the paper's "inadequate for more complex subgraphs".  Superstep
        ``L`` expands level ``L`` of
        :func:`~repro.platforms.kernels.clique_expansion_levels` at the
        candidates' masters and routes level ``L + 1``.
        """
        findptr, fsrc, fdst = forward_edge_arrays(graph)
        fdeg = np.diff(findptr)
        masters = placement.master
        parts = recorder.parts
        total = 0
        recorder.begin_superstep()
        recorder.add_compute_counts(
            np.bincount(masters, weights=fdeg, minlength=parts)
        )
        levels = clique_expansion_levels(
            findptr, fsrc, fdst, graph.num_vertices, k
        )
        for depth, level in enumerate(levels, start=1):
            recorder.add_message_counts(*message_matrices(
                masters[level.vertex], masters[level.cand],
                8.0 * (1 + level.size), parts,
            ))
            recorder.end_superstep()
            recorder.begin_superstep()
            recorder.add_compute_counts(np.bincount(
                masters[level.cand], weights=level.size + fdeg[level.cand],
                minlength=parts,
            ))
            if depth == k - 2:
                total = int(level.narrowed.sum())
        recorder.end_superstep()
        return total


def _ship_endpoint_lists(
    graph: Graph, recorder: TraceRecorder, masters: np.ndarray, *, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Meter TC's and LCC's per-edge work in the open superstep: each
    logical edge lands on a part drawn from ``default_rng(seed)``, and
    each non-loop edge ``(u, v)`` pulls both endpoints' simple adjacency
    lists from remote masters (8 bytes per entry) and costs
    ``|N(u)| + |N(v)|`` ops there.  Returns the non-loop edges'
    ``(src, dst, part)``."""
    und = graph.to_undirected()
    src, dst, _ = und.edge_arrays()
    rng = np.random.default_rng(seed)
    edge_parts = rng.integers(0, recorder.parts, size=src.shape[0])
    keep = src != dst  # a loop edge closes no triangle
    src, dst, edge_parts = src[keep], dst[keep], edge_parts[keep]
    degree = simple_degrees(und)
    ends = np.concatenate([src, dst])
    at = np.concatenate([edge_parts, edge_parts])
    remote = masters[ends] != at
    recorder.add_message_counts(*message_matrices(
        masters[ends[remote]], at[remote], 8.0 * degree[ends[remote]],
        recorder.parts,
    ))
    recorder.add_compute_counts(np.bincount(
        edge_parts, weights=degree[src] + degree[dst],
        minlength=recorder.parts,
    ))
    return src, dst, edge_parts

"""Vertex-centric implementations of the LDBC comparison algorithms
(BFS and LCC).

These are not part of the paper's core-eight suite — they are LDBC
Graphalytics' remaining algorithms, kept so the benchmark-vs-benchmark
diversity comparison (Section 3) can run both suites side by side.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import Graph
from repro.errors import GraphStructureError
from repro.platforms.kernels import simple_degrees
from repro.platforms.vertex_centric.engine import (
    BulkInbox,
    BulkVertexContext,
    VertexContext,
    VertexProgram,
)
from repro.platforms.vertex_centric.programs import TriangleCountProgram

__all__ = ["BFSProgram", "LCCProgram"]


class BFSProgram(VertexProgram):
    """Frontier BFS: each discovered vertex forwards the next level.

    One superstep per level — LDBC's canonical traversal workload.
    """

    combine = staticmethod(min)

    def __init__(self, source: int = 0) -> None:
        self.source = source
        self.levels: np.ndarray | None = None

    def setup(self, graph: Graph) -> None:
        n = graph.num_vertices
        if not 0 <= self.source < n:
            raise GraphStructureError(f"source {self.source} out of range")
        self.levels = np.full(n, -1, dtype=np.int64)

    def initial_frontier(self, graph: Graph):
        return [self.source]

    def compute(self, v: int, messages, ctx: VertexContext) -> None:
        if self.levels[v] >= 0:
            return
        if ctx.superstep == 0 and v == self.source:
            self.levels[v] = 0
        elif messages:
            self.levels[v] = ctx.superstep
        else:
            return
        ctx.send_to_neighbors(v, self.levels[v] + 1)


class LCCProgram(TriangleCountProgram):
    """Local clustering coefficient via adjacency-list exchange.

    Superstep 0 ships forward adjacency lists as TC does, each with its
    sender's id; superstep 1 intersects and *credits every triangle
    corner* — the receiver locally, the sender by one message per closed
    forward edge, the third vertex by one per triangle; superstep 2
    folds the late credits and normalizes by the wedge count.
    """

    header_entries = 1

    def __init__(self) -> None:
        super().__init__()
        self.lcc: np.ndarray | None = None
        self._triangles: np.ndarray | None = None
        self._simple_degree: np.ndarray | None = None

    def setup(self, graph: Graph) -> None:
        super().setup(graph)
        n = graph.num_vertices
        self.lcc = np.zeros(n, dtype=np.float64)
        self._triangles = np.zeros(n, dtype=np.int64)
        # Wedge denominators over the simple graph: self-loop slots
        # contribute no wedge.
        self._simple_degree = simple_degrees(graph)

    def compute_bulk(
        self, frontier: np.ndarray, inbox: BulkInbox, ctx: BulkVertexContext
    ) -> None:
        n = ctx.graph.num_vertices
        if ctx.superstep == 0:
            super().compute_bulk(frontier, inbox, ctx)
            ctx.activate_bulk(frontier)  # everyone normalizes at the end
            return
        if ctx.superstep == 1:
            v, u, w = self._intersect(inbox, ctx)
            self._triangles += np.bincount(u, minlength=n)
            # Closed wedges come grouped by forward edge (v, u): one
            # credit of the edge's triangle count back to v, and one
            # credit per triangle on to w.
            first = np.flatnonzero(np.diff(v * n + u, prepend=-1))
            per_edge = np.diff(np.append(first, v.size))
            ctx.send_edges_bulk(
                np.concatenate([u[first], u]),
                np.concatenate([v[first], w]),
                np.concatenate([per_edge, np.ones(v.size, dtype=np.int64)]),
            )
            ctx.activate_bulk(frontier)
            return
        dst, credits = inbox.raw()
        self._triangles += np.bincount(
            dst, weights=credits, minlength=n
        ).astype(np.int64)
        degree = self._simple_degree[frontier]
        wedges = degree * (degree - 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            self.lcc[frontier] = np.where(
                wedges != 0, 2.0 * self._triangles[frontier] / wedges, 0.0
            )

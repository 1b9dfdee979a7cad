"""Subgraph-centric engine (G-thinker's task model).

The fundamental unit of computation is a *task* owning a candidate
subgraph.  Tasks spawn from individual vertices, pull the adjacency of
remote vertices they need (metered as messages, cached per worker), and
expand/verify subgraphs locally (metered as compute ops).  Output size
can exceed the graph, which is why this model exists (Section 3.3) — and
why it cannot express iterative/sequential algorithms: there is no
cross-task iteration-control flow (the paper's 6 unsupported cases on
G-thinker).

Each algorithm is one scheduling wave of tasks, run as a census over
the flat forward-edge CSR (:mod:`repro.platforms.kernels`): per-worker
op charges are bincounted, and the wave's unique remote pulls are
metered as one worker-pair message matrix.  Every charged
quantity is integer-valued, so float64 aggregation order cannot change
the per-wave totals.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

import numpy as np

from repro.cluster.cost import TraceRecorder
from repro.core.graph import Graph
from repro.core.partition import hash_partition
from repro.errors import GraphStructureError
from repro.obs import CACHE_HITS, CACHE_MISSES, get_tracer
from repro.platforms.kernels import (
    clique_expansion_census,
    clustering_coefficients,
    forward_edge_arrays,
    message_matrices,
    triangle_census,
)

__all__ = ["SubgraphCentricEngine"]


class SubgraphCentricEngine:
    """Task-parallel subgraph mining executor.

    Tasks are spawned one per vertex and execute on the worker owning
    that vertex (hash placement).  Remote adjacency fetches are cached
    per worker for one wave, mirroring G-thinker's vertex cache.
    """

    def __init__(self, graph: Graph, recorder: TraceRecorder) -> None:
        self.graph = graph
        self.recorder = recorder
        self.parts = recorder.parts
        self.owner = hash_partition(graph, self.parts).owner
        self._tracer = get_tracer()
        self._wave_index = 0

    def count_triangles(self) -> int:
        """TC as per-forward-edge tasks intersecting forward adjacency."""
        v, _, _ = self._wave(triangle_census)
        return int(v.size)

    def local_clustering(self) -> np.ndarray:
        """LCC as the TC wave with corner crediting (the LDBC comparison
        suite's only subgraph-expressible task)."""
        n = self.graph.num_vertices
        v, u, w = self._wave(triangle_census)
        triangles = (np.bincount(v, minlength=n) + np.bincount(u, minlength=n)
                     + np.bincount(w, minlength=n))
        return clustering_coefficients(self.graph, triangles)

    def count_k_cliques(self, k: int) -> int:
        """KC as per-vertex expansion tasks (G-thinker's headline use)."""
        if k < 3:
            raise GraphStructureError(f"k must be >= 3 for KC, got {k}")
        return self._wave(partial(clique_expansion_census, k=k))

    def _wave(self, census: Callable[..., tuple]) -> Any:
        """Run one census as a scheduling wave of tasks and meter it.

        The wave is one superstep and one ``task-wave`` span.  Each
        unique (worker, remote vertex) pull ships one forward list and
        counts as a cache miss; every repeated request for it is a cache
        hit.  The pull cache lives for one wave only — G-thinker evicts
        between scheduling waves — so a second wave meters its pulls
        again.  Returns the census's first element.
        """
        graph = self.graph
        findptr, fsrc, fdst = forward_edge_arrays(graph)
        with self._tracer.span(
            "task-wave", category="superstep", index=self._wave_index
        ):
            self.recorder.begin_superstep()
            result, ops, pull_root, pull_vertex, calls = census(
                findptr, fsrc, fdst, graph.num_vertices,
                owner=self.owner, parts=self.parts,
            )
            self.recorder.add_message_counts(*message_matrices(
                self.owner[pull_vertex], pull_root,
                8.0 * np.diff(findptr)[pull_vertex], self.parts,
            ))
            if self._tracer.enabled and calls:
                misses = int(pull_root.shape[0])
                self._tracer.add(CACHE_MISSES, float(misses))
                if calls > misses:
                    self._tracer.add(CACHE_HITS, float(calls - misses))
            self.recorder.add_compute_counts(ops)
            self.recorder.end_superstep()
        self._wave_index += 1
        return result

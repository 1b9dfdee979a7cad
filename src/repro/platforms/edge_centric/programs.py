"""GAS programs for PowerGraph (edge-centric implementations).

Iterative and sequential algorithms map naturally onto
Gather-Apply-Scatter; the subgraph algorithms (TC, KC) are handled by
special routines in the platform class because — as the paper notes —
the edge-centric model can express TC per-edge but has no natural home
for multi-vertex clique state.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.graph import Graph
from repro.errors import GraphStructureError
from repro.platforms.edge_centric.engine import BulkGASProgram, GASProgram

__all__ = [
    "PageRankGAS",
    "LabelPropagationGAS",
    "SSSPGAS",
    "WCCGAS",
    "BCForwardGAS",
    "BCBackwardGAS",
    "CoreDecompositionGAS",
    "BFSGAS",
]


class BFSGAS(GASProgram):
    """BFS as monotone level relaxation (the LDBC comparison workload)."""

    def __init__(self, source: int = 0) -> None:
        self.source = source
        self.levels: np.ndarray | None = None

    def setup(self, graph: Graph) -> None:
        n = graph.num_vertices
        if not 0 <= self.source < n:
            raise GraphStructureError(f"source {self.source} out of range")
        self.levels = np.full(n, -1, dtype=np.int64)
        self.levels[self.source] = 0

    def initial_active(self, graph: Graph):
        return graph.neighbors(self.source).tolist()

    def gather(self, u: int, v: int, weight: float):
        return self.levels[u] + 1 if self.levels[u] >= 0 else None

    def merge(self, a, b):
        return a if a < b else b

    def apply(self, v: int, acc) -> bool:
        if acc is None:
            return False
        if self.levels[v] < 0 or acc < self.levels[v]:
            self.levels[v] = acc
            return True
        return False


class PageRankGAS(BulkGASProgram):
    """Synchronous PageRank: gather neighbour contributions, apply the
    damped update; 10 fixed rounds driven by the master hook."""

    gather_mode = "sum"

    def __init__(self, *, damping: float = 0.85, iterations: int = 10) -> None:
        self.damping = damping
        self.iterations = iterations
        self.ranks: np.ndarray | None = None
        self._prev: np.ndarray | None = None
        self._degrees: np.ndarray | None = None
        self._dangling_sum = 0.0

    def setup(self, graph: Graph) -> None:
        n = graph.num_vertices
        self.ranks = np.full(n, 1.0 / n if n else 0.0)
        self._degrees = graph.out_degrees().astype(np.float64)
        self._n = n

    def initial_active(self, graph: Graph) -> Iterable[int]:
        return range(graph.num_vertices)

    def before_iteration(self, iteration: int):
        if iteration >= self.iterations:
            return None
        # Synchronous snapshot: gathers read the previous round's ranks.
        self._prev = self.ranks.copy()
        self._dangling_sum = float(self._prev[self._degrees == 0].sum())
        return range(self._n)

    def should_stop(self, iteration: int) -> bool:
        return iteration >= self.iterations

    def gather(self, u: int, v: int, weight: float):
        d = self._degrees[u]
        return self._prev[u] / d if d > 0 else 0.0

    def merge(self, a, b):
        return a + b

    def apply(self, v: int, acc) -> bool:
        total = acc if acc is not None else 0.0
        self.ranks[v] = (
            (1.0 - self.damping) / self._n
            + self.damping * total
            + self.damping * self._dangling_sum / self._n
        )
        return True

    def scatter(self, v: int) -> bool:
        return False  # activation is master-driven

    # -- bulk path -----------------------------------------------------

    def gather_bulk(self, sources, weights):
        d = self._degrees[sources]
        safe = np.where(d > 0, d, 1.0)
        return np.where(d > 0, self._prev[sources] / safe, 0.0)

    def apply_bulk(self, vertices, acc, gathered):
        # Identical expression to the scalar apply (acc is 0.0 where
        # nothing gathered, standing in for the scalar None -> 0.0).
        self.ranks[vertices] = (
            (1.0 - self.damping) / self._n
            + self.damping * acc
            + self.damping * self._dangling_sum / self._n
        )
        return np.ones(vertices.size, dtype=bool)

    def scatter_bulk(self, vertices):
        return np.zeros(vertices.size, dtype=bool)


class LabelPropagationGAS(BulkGASProgram):
    """Synchronous LPA: gather a label multiset, apply the majority."""

    message_bytes = 24.0  # partial label histograms
    gather_mode = "majority"

    def __init__(self, *, iterations: int = 10) -> None:
        self.iterations = iterations
        self.labels: np.ndarray | None = None
        self._prev: np.ndarray | None = None
        self._changed = True

    def setup(self, graph: Graph) -> None:
        self.labels = np.arange(graph.num_vertices, dtype=np.int64)
        self._n = graph.num_vertices

    def before_iteration(self, iteration: int):
        if iteration >= self.iterations or not self._changed:
            return None
        self._prev = self.labels.copy()
        self._changed = False
        return range(self._n)

    def should_stop(self, iteration: int) -> bool:
        return iteration >= self.iterations

    def initial_active(self, graph: Graph) -> Iterable[int]:
        return []

    def gather(self, u: int, v: int, weight: float):
        return {int(self._prev[u]): 1}

    def merge(self, a: dict, b: dict):
        for label, count in b.items():
            a[label] = a.get(label, 0) + count
        return a

    def apply(self, v: int, acc) -> bool:
        if not acc:
            return False
        top = max(acc.values())
        best = min(label for label, count in acc.items() if count == top)
        if best != self.labels[v]:
            self.labels[v] = best
            self._changed = True
        return False

    def scatter(self, v: int) -> bool:
        return False

    # -- bulk path -----------------------------------------------------

    def gather_bulk(self, sources, weights):
        return self._prev[sources]

    def apply_bulk(self, vertices, acc, gathered):
        update = gathered & (acc != self.labels[vertices])
        if update.any():
            self.labels[vertices[update]] = acc[update]
            self._changed = True
        # Like the scalar apply, never report a change: LPA neither
        # syncs replicas nor drives activation (master-scheduled).
        return np.zeros(vertices.size, dtype=bool)


class SSSPGAS(BulkGASProgram):
    """SSSP as synchronous min relaxation over the frontier (monotone,
    so it converges to the Dijkstra fixpoint).

    Gathers read the previous iteration's snapshot, which keeps the
    scalar and bulk paths on the same relaxation schedule (and hence
    bit-identical WorkTraces)."""

    gather_mode = "min"

    def __init__(self, source: int = 0) -> None:
        self.source = source
        self.dist: np.ndarray | None = None
        self._prev: np.ndarray | None = None

    def setup(self, graph: Graph) -> None:
        n = graph.num_vertices
        if not 0 <= self.source < n:
            raise GraphStructureError(f"source {self.source} out of range")
        self.dist = np.full(n, np.inf)
        self.dist[self.source] = 0.0

    def initial_active(self, graph: Graph) -> Iterable[int]:
        return graph.neighbors(self.source).tolist()

    def before_iteration(self, iteration: int):
        # Synchronous snapshot: gathers read last iteration's distances.
        self._prev = self.dist.copy()
        return None

    def gather(self, u: int, v: int, weight: float):
        return self._prev[u] + weight

    def merge(self, a, b):
        return a if a < b else b

    def apply(self, v: int, acc) -> bool:
        if acc is not None and acc < self.dist[v]:
            self.dist[v] = acc
            return True
        return False

    # -- bulk path -----------------------------------------------------

    def gather_bulk(self, sources, weights):
        if weights is None:
            return self._prev[sources] + 1.0
        return self._prev[sources] + weights

    def apply_bulk(self, vertices, acc, gathered):
        changed = gathered & (acc < self.dist[vertices])
        self.dist[vertices[changed]] = acc[changed]
        return changed


class WCCGAS(BulkGASProgram):
    """HashMin components: gather the minimum neighbour label.

    Gathers read the previous iteration's snapshot (synchronous
    HashMin), so labels spread one hop per iteration on both execution
    paths.  Iterations grow with the diameter — the edge-centric model
    cannot message non-neighbours, so no pointer jumping (Section 8.2).
    """

    gather_mode = "min"

    def __init__(self) -> None:
        self.labels: np.ndarray | None = None
        self._prev: np.ndarray | None = None

    def setup(self, graph: Graph) -> None:
        self.labels = np.arange(graph.num_vertices, dtype=np.int64)

    def before_iteration(self, iteration: int):
        self._prev = self.labels.copy()
        return None

    def gather(self, u: int, v: int, weight: float):
        return int(self._prev[u])

    def merge(self, a, b):
        return a if a < b else b

    def apply(self, v: int, acc) -> bool:
        if acc is not None and acc < self.labels[v]:
            self.labels[v] = acc
            return True
        return False

    # -- bulk path -----------------------------------------------------

    def gather_bulk(self, sources, weights):
        return self._prev[sources]

    def apply_bulk(self, vertices, acc, gathered):
        changed = gathered & (acc < self.labels[vertices])
        self.labels[vertices[changed]] = acc[changed]
        return changed


class BCForwardGAS(GASProgram):
    """Forward Brandes on GAS: level-synchronous BFS accumulating sigma."""

    def __init__(self, source: int = 0) -> None:
        self.source = source
        self.depth: np.ndarray | None = None
        self.sigma: np.ndarray | None = None
        self._level = 0

    def setup(self, graph: Graph) -> None:
        n = graph.num_vertices
        if not 0 <= self.source < n:
            raise GraphStructureError(f"source {self.source} out of range")
        self.depth = np.full(n, -1, dtype=np.int64)
        self.sigma = np.zeros(n, dtype=np.float64)
        self.depth[self.source] = 0
        self.sigma[self.source] = 1.0

    def initial_active(self, graph: Graph) -> Iterable[int]:
        return graph.neighbors(self.source).tolist()

    def before_iteration(self, iteration: int):
        self._level = iteration + 1
        return None

    def gather(self, u: int, v: int, weight: float):
        if self.depth[u] == self._level - 1:
            return self.sigma[u]
        return None

    def merge(self, a, b):
        return a + b

    def apply(self, v: int, acc) -> bool:
        if self.depth[v] >= 0 or acc is None:
            return False
        self.depth[v] = self._level
        self.sigma[v] = acc
        return True


class BCBackwardGAS(GASProgram):
    """Backward Brandes on GAS: dependency accumulation, deepest level
    first, scheduled entirely by the master hook."""

    def __init__(self, forward: BCForwardGAS) -> None:
        self.forward = forward
        self.delta: np.ndarray | None = None
        self._levels: list[np.ndarray] = []

    def setup(self, graph: Graph) -> None:
        depth = self.forward.depth
        self.delta = np.zeros(graph.num_vertices, dtype=np.float64)
        max_depth = int(depth.max()) if depth.size else -1
        self._levels = [
            np.nonzero(depth == d)[0] for d in range(max_depth - 1, -1, -1)
        ]

    def initial_active(self, graph: Graph) -> Iterable[int]:
        return []

    def before_iteration(self, iteration: int):
        if iteration < len(self._levels):
            return self._levels[iteration].tolist()
        return None

    def should_stop(self, iteration: int) -> bool:
        return iteration >= len(self._levels)

    def gather(self, u: int, v: int, weight: float):
        f = self.forward
        if f.depth[u] == f.depth[v] + 1:
            return f.sigma[v] / f.sigma[u] * (1.0 + self.delta[u])
        return None

    def merge(self, a, b):
        return a + b

    def apply(self, v: int, acc) -> bool:
        if acc is not None:
            self.delta[v] = acc
        return False


class CoreDecompositionGAS(GASProgram):
    """Peeling CD on GAS: gather recounts the alive degree each visit
    (PowerGraph re-activates all vertices per coreness level, the
    behaviour the paper contrasts with Flash/Ligra)."""

    def __init__(self) -> None:
        self.k = 1
        self.coreness: np.ndarray | None = None
        self.removed: np.ndarray | None = None
        self.alive_degree: np.ndarray | None = None
        self._removed_this_iter = 0

    def setup(self, graph: Graph) -> None:
        n = graph.num_vertices
        self.coreness = np.zeros(n, dtype=np.int64)
        self.removed = np.zeros(n, dtype=bool)
        self.alive_degree = graph.out_degrees().astype(np.int64).copy()
        self._n = n

    def initial_active(self, graph: Graph) -> Iterable[int]:
        return []

    def before_iteration(self, iteration: int):
        alive = ~self.removed
        if not alive.any():
            return None
        if iteration > 0 and self._removed_this_iter > 0:
            self._removed_this_iter = 0
            return np.nonzero(alive)[0]  # full re-activation per round
        self._removed_this_iter = 0
        while True:
            if (alive & (self.alive_degree < self.k)).any():
                break
            self.k += 1
        return np.nonzero(alive)[0]

    def gather(self, u: int, v: int, weight: float):
        return 0 if self.removed[u] else 1

    def merge(self, a, b):
        return a + b

    def apply(self, v: int, acc) -> bool:
        if self.removed[v]:
            return False
        self.alive_degree[v] = acc if acc is not None else 0
        if self.alive_degree[v] < self.k:
            self.removed[v] = True
            self.coreness[v] = self.k - 1
            self._removed_this_iter += 1
            return True
        return False

    def scatter(self, v: int) -> bool:
        return False  # master re-activates everything anyway

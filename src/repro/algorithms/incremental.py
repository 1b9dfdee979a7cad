"""Incremental algorithms over dynamic graph streams.

Companions to :mod:`repro.datagen.dynamic`: maintain results across
edge-insertion batches far cheaper than recomputation.

* :class:`IncrementalWCC` — array-native union-find maintained across
  batches with path-halving batch finds (insert-only connectivity is the
  textbook incremental case; Grape's IncEval does exactly this,
  Section 8.2).
* :class:`IncrementalPageRank` — warm-started power iteration to a
  tolerance: each batch resumes from the previous ranks and converges
  in a fraction of the cold-start iterations.

Both are validated against full recomputation in
``tests/algorithms/test_incremental.py``; :func:`fingerprint` is the
result-array digest the dynamic benchmark uses for its per-window
parity assertions.  The engine-level streaming mode
(:mod:`repro.platforms.vertex_centric.streaming`) covers SSSP and LPA.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.graph import Graph
from repro.datagen.dynamic import DynamicGraphStream, EdgeBatch
from repro.errors import GeneratorParameterError

__all__ = [
    "IncrementalWCC",
    "IncrementalPageRank",
    "fingerprint",
    "replay_stream_wcc",
]


def fingerprint(values: np.ndarray) -> str:
    """SHA-256 digest of a result array (dtype, shape, and raw bytes).

    Equal fingerprints mean bit-identical results — the parity check the
    dynamic benchmark asserts between incremental and recomputed runs.
    """
    arr = np.ascontiguousarray(values)
    digest = hashlib.sha256()
    digest.update(str(arr.dtype).encode())
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())
    return digest.hexdigest()


class IncrementalWCC:
    """Connected components under edge insertions via union-find.

    Batch finds walk all pending vertices toward their roots together
    with path halving (``parent[x] = parent[parent[x]]`` each hop), and
    unions link the larger root of every still-split pair to the
    smaller via ``np.minimum.at`` — no per-edge Python loop.  Roots are
    always component minima, so ``labels()`` matches the reference WCC.
    """

    def __init__(self, num_vertices: int) -> None:
        self._parent = np.arange(num_vertices, dtype=np.int64)
        self.operations = 0          # find hops + union attempts performed
        self.num_components = num_vertices

    def _find_many(self, vertices: np.ndarray) -> np.ndarray:
        """Roots of ``vertices``, halving paths as a side effect."""
        parent = self._parent
        roots = np.array(vertices, dtype=np.int64, copy=True)
        while True:
            above = parent[roots]
            moving = above != roots
            if not moving.any():
                return roots
            self.operations += int(np.count_nonzero(moving))
            hop = roots[moving]
            parent[hop] = parent[above[moving]]
            roots[moving] = parent[hop]

    def apply_batch(self, batch: EdgeBatch) -> int:
        """Insert a batch; returns how many merges it caused."""
        src = np.asarray(batch.src, dtype=np.int64)
        dst = np.asarray(batch.dst, dtype=np.int64)
        self.operations += int(src.size)     # one union attempt per edge
        if src.size == 0:
            return 0
        before = self.num_components
        a = self._find_many(src)
        b = self._find_many(dst)
        while True:
            split = a != b
            if not split.any():
                break
            lo = np.minimum(a[split], b[split])
            hi = np.maximum(a[split], b[split])
            # A root may be the high side of one pair and the low side of
            # another, so link and re-find until every pair agrees.
            np.minimum.at(self._parent, hi, lo)
            self.operations += int(hi.size)
            a = self._find_many(a)
            b = self._find_many(b)
        n = self._parent.shape[0]
        after = int(np.count_nonzero(
            self._parent == np.arange(n, dtype=np.int64)
        ))
        self.num_components = after
        return before - after

    def labels(self) -> np.ndarray:
        """Component label per vertex (minimum member id)."""
        parent = self._parent
        labels = parent.copy()
        while True:
            above = parent[labels]
            moving = above != labels
            if not moving.any():
                break
            self.operations += int(np.count_nonzero(moving))
            labels = above
        self._parent = labels        # full compression, like scalar find
        return labels.copy()


class IncrementalPageRank:
    """Warm-started PageRank over a growing graph.

    ``update(graph)`` iterates to ``tolerance`` starting from the
    previous ranks; after a small batch of insertions, far fewer
    iterations are needed than from the uniform cold start.
    """

    def __init__(self, num_vertices: int, *, damping: float = 0.85,
                 tolerance: float = 1e-8, max_iterations: int = 200) -> None:
        if not 0.0 <= damping <= 1.0:
            raise GeneratorParameterError(
                f"damping must be in [0, 1], got {damping}"
            )
        self.damping = damping
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.ranks = np.full(num_vertices,
                             1.0 / num_vertices if num_vertices else 0.0)
        self.last_iterations = 0

    def update(self, graph: Graph, *, cold_start: bool = False) -> np.ndarray:
        """Re-converge on ``graph``; returns the new ranks.

        ``cold_start=True`` resets to the uniform vector first (the
        recompute baseline the warm start is measured against).
        """
        n = graph.num_vertices
        if n != self.ranks.shape[0]:
            raise GeneratorParameterError(
                f"graph has {n} vertices, tracker has {self.ranks.shape[0]}"
            )
        ranks = np.full(n, 1.0 / n) if cold_start else self.ranks.copy()
        out_deg = graph.out_degrees().astype(np.float64)
        dangling = out_deg == 0
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
        dst = graph.indices
        base = (1.0 - self.damping) / n

        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            contrib = np.where(dangling, 0.0,
                               ranks / np.maximum(out_deg, 1.0))
            new_ranks = np.full(n, base)
            np.add.at(new_ranks, dst, self.damping * contrib[src])
            new_ranks += self.damping * ranks[dangling].sum() / n
            delta = np.abs(new_ranks - ranks).sum()
            ranks = new_ranks
            if delta < self.tolerance:
                break
        self.ranks = ranks
        self.last_iterations = iterations
        return ranks


def replay_stream_wcc(stream: DynamicGraphStream) -> dict[str, float]:
    """Process a stream with incremental WCC vs per-batch recomputation.

    Returns the work counters of both strategies; the incremental one is
    validated against the recomputation inside.
    """
    from repro.algorithms.reference import wcc

    tracker = IncrementalWCC(stream.num_vertices)
    recompute_ops = 0.0
    for t, batch in enumerate(stream):
        tracker.apply_batch(batch)
        snapshot = stream.snapshot(t)
        # recompute cost model: one pass over all edges + vertices
        recompute_ops += snapshot.num_edges + snapshot.num_vertices
    final = stream.final_graph()
    if not np.array_equal(tracker.labels(), wcc(final)):
        raise AssertionError("incremental WCC diverged from recomputation")
    return {
        "incremental_ops": float(tracker.operations),
        "recompute_ops": float(recompute_ops),
        "final_components": float(tracker.num_components),
    }

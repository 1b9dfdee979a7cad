"""Compressed-sparse-row graph container.

:class:`Graph` is the single in-memory graph representation used throughout
the library: the data generators produce it, the platform simulators load
it, the reference algorithm kernels consume it, and the statistics module
analyses it.

The representation is a numpy-backed CSR adjacency:

* ``indptr`` — int64 array of length ``n + 1``
* ``indices`` — int64 array of neighbour ids, one block per vertex
* ``weights`` — optional float64 array aligned with ``indices``

Directed graphs additionally build a reverse CSR lazily for in-neighbour
queries.  Undirected graphs store each edge in both adjacency blocks but
report the logical (undirected) edge count via :attr:`Graph.num_edges`.

Self-loop storage invariant
---------------------------
A self-loop ``(v, v)`` occupies exactly **one** CSR slot, in directed and
undirected graphs alike: :meth:`Graph.from_edges` mirrors only the
non-loop edges of an undirected input, so ``edges()`` /
:meth:`Graph.edge_arrays` yield each self-loop once, ``degree(v)`` counts
it once, and :meth:`Graph.to_undirected` / :meth:`Graph.with_weights`
round-trips preserve the edge count — the "self-loops counted once"
contract of :attr:`Graph.num_edges`.  When wrapping pre-built arrays with
:meth:`Graph.from_arrays` that contain self-loops, pass ``num_edges``
explicitly (the ``slots // 2`` default assumes every stored slot is half
of a mirrored pair).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import GraphFormatError, GraphStructureError

__all__ = ["Graph", "EdgeList"]


@dataclass(frozen=True)
class EdgeList:
    """A plain (src, dst, weight) edge array triple, pre-CSR.

    ``weight`` may be ``None`` for unweighted graphs.  This is the exchange
    format between generators and :meth:`Graph.from_edges`.
    """

    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray | None = None
    num_vertices: int | None = None
    directed: bool = False

    def __post_init__(self) -> None:
        if self.src.shape != self.dst.shape:
            raise GraphFormatError(
                f"src/dst length mismatch: {self.src.shape} vs {self.dst.shape}"
            )
        if self.weight is not None and self.weight.shape != self.src.shape:
            raise GraphFormatError(
                f"weight length mismatch: {self.weight.shape} vs {self.src.shape}"
            )

    @property
    def num_edges(self) -> int:
        """Number of edge records in the list."""
        return int(self.src.shape[0])


class Graph:
    """Immutable CSR graph.

    Construct via :meth:`from_edges` (most callers), :meth:`from_arrays`
    (when CSR arrays already exist), or the convenience constructors in
    :mod:`repro.core.builder`.

    Parameters
    ----------
    indptr, indices:
        CSR adjacency arrays.  For undirected graphs each edge appears in
        both endpoint blocks.
    weights:
        Optional per-slot weights aligned with ``indices``.
    directed:
        Whether edges are one-directional.
    num_edges:
        Logical edge count.  For undirected graphs this is half the number
        of stored slots (self-loops counted once).
    """

    __slots__ = (
        "indptr",
        "indices",
        "weights",
        "directed",
        "_num_edges",
        "_rev_indptr",
        "_rev_indices",
        "_rev_weights",
        "_sorted_adjacency",
        # Weak references let per-graph derived-data caches (the kernel
        # cache in repro.platforms.kernels) evict entries when a graph is
        # garbage-collected instead of keying on identity forever.
        "__weakref__",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray | None,
        directed: bool,
        num_edges: int,
        *,
        validate: bool = True,
    ) -> None:
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphFormatError("indptr/indices must be 1-D arrays")
        if indptr[0] != 0 or indptr[-1] != indices.shape[0]:
            raise GraphFormatError(
                "indptr must start at 0 and end at len(indices): "
                f"got [{indptr[0]}, {indptr[-1]}] with {indices.shape[0]} slots"
            )
        if validate and np.any(np.diff(indptr) < 0):
            raise GraphFormatError("indptr must be non-decreasing")
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.weights = (
            None if weights is None else np.ascontiguousarray(weights, dtype=np.float64)
        )
        self.directed = bool(directed)
        self._num_edges = int(num_edges)
        self._rev_indptr: np.ndarray | None = None
        self._rev_indices: np.ndarray | None = None
        self._rev_weights: np.ndarray | None = None
        self._sorted_adjacency: bool | None = None
        n = self.num_vertices
        # The neighbour-range scan reads every CSR slot; ``validate=False``
        # skips it for arrays built in-package from already-checked ids
        # (repro.core.delta's snapshots and empty graphs).
        if validate and self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= n
        ):
            raise GraphFormatError(
                f"neighbour id out of range [0, {n}): "
                f"[{self.indices.min()}, {self.indices.max()}]"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        src: Sequence[int] | np.ndarray,
        dst: Sequence[int] | np.ndarray,
        *,
        weights: Sequence[float] | np.ndarray | None = None,
        num_vertices: int | None = None,
        directed: bool = False,
        dedup: bool = True,
        drop_self_loops: bool = True,
    ) -> "Graph":
        """Build a graph from parallel src/dst arrays.

        Duplicate edges (and, for undirected graphs, reversed duplicates)
        are removed when ``dedup`` is true; the first weight wins.
        """
        src_arr = np.asarray(src, dtype=np.int64)
        dst_arr = np.asarray(dst, dtype=np.int64)
        if src_arr.shape != dst_arr.shape:
            raise GraphFormatError("src and dst must have equal length")
        w_arr = None if weights is None else np.asarray(weights, dtype=np.float64)
        if w_arr is not None and w_arr.shape != src_arr.shape:
            raise GraphFormatError("weights must align with src/dst")
        if src_arr.size and (src_arr.min() < 0 or dst_arr.min() < 0):
            raise GraphFormatError("vertex ids must be non-negative")

        if num_vertices is None:
            num_vertices = int(max(src_arr.max(initial=-1), dst_arr.max(initial=-1)) + 1)
        elif src_arr.size and max(src_arr.max(), dst_arr.max()) >= num_vertices:
            raise GraphFormatError(
                f"edge endpoint exceeds num_vertices={num_vertices}"
            )

        if drop_self_loops and src_arr.size:
            keep = src_arr != dst_arr
            src_arr, dst_arr = src_arr[keep], dst_arr[keep]
            if w_arr is not None:
                w_arr = w_arr[keep]

        if dedup and src_arr.size:
            if directed:
                key_a, key_b = src_arr, dst_arr
            else:
                key_a = np.minimum(src_arr, dst_arr)
                key_b = np.maximum(src_arr, dst_arr)
            keys = key_a * np.int64(num_vertices) + key_b
            _, first = np.unique(keys, return_index=True)
            first.sort()
            src_arr, dst_arr = src_arr[first], dst_arr[first]
            if w_arr is not None:
                w_arr = w_arr[first]

        num_edges = int(src_arr.shape[0])
        if directed:
            all_src, all_dst = src_arr, dst_arr
            all_w = w_arr
        else:
            # Mirror only the non-loop edges: a self-loop must occupy a
            # single CSR slot so degree(v), edge_arrays(), and round-trip
            # constructors all count it once.
            mirror = src_arr != dst_arr
            all_src = np.concatenate([src_arr, dst_arr[mirror]])
            all_dst = np.concatenate([dst_arr, src_arr[mirror]])
            all_w = (
                None if w_arr is None
                else np.concatenate([w_arr, w_arr[mirror]])
            )

        indptr, indices, slot_w = _build_csr(all_src, all_dst, all_w, num_vertices)
        return cls(indptr, indices, slot_w, directed, num_edges)

    @classmethod
    def from_edge_list(cls, edges: EdgeList, **kwargs) -> "Graph":
        """Build a graph from an :class:`EdgeList` produced by a generator."""
        return cls.from_edges(
            edges.src,
            edges.dst,
            weights=edges.weight,
            num_vertices=edges.num_vertices,
            directed=kwargs.pop("directed", edges.directed),
            **kwargs,
        )

    @classmethod
    def from_arrays(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        weights: np.ndarray | None = None,
        directed: bool = False,
        num_edges: int | None = None,
        validate: bool = True,
    ) -> "Graph":
        """Wrap pre-built CSR arrays (no copying beyond dtype coercion).

        ``validate=False`` skips the full-array sanity scans; only pass
        it for arrays whose invariants are guaranteed by construction
        (e.g. a :class:`~repro.core.delta.DeltaCSR` snapshot).
        """
        if num_edges is None:
            slots = int(indices.shape[0])
            num_edges = slots if directed else slots // 2
        return cls(indptr, indices, weights, directed, num_edges,
                   validate=validate)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return int(self.indptr.shape[0] - 1)

    @property
    def num_edges(self) -> int:
        """Logical edge count ``m`` (undirected edges counted once)."""
        return self._num_edges

    @property
    def is_weighted(self) -> bool:
        """Whether per-edge weights are stored."""
        return self.weights is not None

    @property
    def density(self) -> float:
        """Edge density ``m / (n * (n - 1))`` (directed) or
        ``2m / (n * (n - 1))`` (undirected)."""
        n = self.num_vertices
        if n < 2:
            return 0.0
        pairs = n * (n - 1)
        m = self.num_edges if self.directed else 2 * self.num_edges
        return m / pairs

    def out_degrees(self) -> np.ndarray:
        """Per-vertex out-degree (== degree for undirected graphs)."""
        return np.diff(self.indptr)

    def in_degrees(self) -> np.ndarray:
        """Per-vertex in-degree (== degree for undirected graphs)."""
        if not self.directed:
            return self.out_degrees()
        counts = np.bincount(self.indices, minlength=self.num_vertices)
        return counts.astype(np.int64)

    def degree(self, v: int) -> int:
        """Out-degree of a single vertex."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Out-neighbour id view for vertex ``v`` (no copy)."""
        return self.indices[self.indptr[v]: self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Edge-weight view aligned with :meth:`neighbors`."""
        if self.weights is None:
            raise GraphStructureError("graph is unweighted")
        return self.weights[self.indptr[v]: self.indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """In-neighbour ids of ``v`` (uses the lazily built reverse CSR)."""
        if not self.directed:
            return self.neighbors(v)
        self._ensure_reverse()
        assert self._rev_indptr is not None and self._rev_indices is not None
        return self._rev_indices[self._rev_indptr[v]: self._rev_indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``u -> v`` exists (binary search when sorted)."""
        block = self.neighbors(u)
        if self._adjacency_sorted():
            pos = np.searchsorted(block, v)
            return bool(pos < block.shape[0] and block[pos] == v)
        return bool(np.any(block == v))

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``u -> v``; raises if absent or unweighted.

        Uses binary search when the adjacency blocks are sorted (always
        true post-:func:`_build_csr`), mirroring :meth:`has_edge`; falls
        back to a linear scan for unsorted hand-built arrays.
        """
        if self.weights is None:
            raise GraphStructureError("graph is unweighted")
        block = self.neighbors(u)
        if self._adjacency_sorted():
            pos = int(np.searchsorted(block, v))
            if pos >= block.shape[0] or block[pos] != v:
                raise GraphStructureError(f"edge ({u}, {v}) not present")
            return float(self.neighbor_weights(u)[pos])
        hits = np.nonzero(block == v)[0]
        if hits.size == 0:
            raise GraphStructureError(f"edge ({u}, {v}) not present")
        return float(self.neighbor_weights(u)[hits[0]])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate logical edges as ``(u, v)`` pairs.

        For undirected graphs each edge is yielded once with ``u <= v``.
        """
        for u in range(self.num_vertices):
            for v in self.neighbors(u):
                v = int(v)
                if self.directed or u <= v:
                    yield (u, v)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Logical edges as ``(src, dst, weight)`` arrays (vectorised)."""
        n = self.num_vertices
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        dst = self.indices
        w = self.weights
        if not self.directed:
            keep = src <= dst
            src, dst = src[keep], dst[keep]
            w = None if w is None else w[keep]
        return src, dst, (None if w is None else w.copy())

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def to_undirected(self) -> "Graph":
        """Undirected view of a directed graph (identity if undirected)."""
        if not self.directed:
            return self
        src, dst, w = self.edge_arrays()
        return Graph.from_edges(
            src, dst, weights=w, num_vertices=self.num_vertices,
            directed=False, drop_self_loops=False,
        )

    def with_weights(self, weights_per_edge: np.ndarray) -> "Graph":
        """Return a weighted copy using one weight per *logical* edge."""
        src, dst, _ = self.edge_arrays()
        if weights_per_edge.shape[0] != src.shape[0]:
            raise GraphFormatError(
                f"expected {src.shape[0]} weights, got {weights_per_edge.shape[0]}"
            )
        return Graph.from_edges(
            src,
            dst,
            weights=weights_per_edge,
            num_vertices=self.num_vertices,
            directed=self.directed,
            drop_self_loops=False,
        )

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Vertex-induced subgraph with ids relabelled ``0..k-1`` in the
        sorted order of ``vertices``."""
        vert = np.unique(np.asarray(list(vertices), dtype=np.int64))
        if vert.size and (vert[0] < 0 or vert[-1] >= self.num_vertices):
            raise GraphFormatError("subgraph vertex id out of range")
        remap = -np.ones(self.num_vertices, dtype=np.int64)
        remap[vert] = np.arange(vert.size)
        src, dst, w = self.edge_arrays()
        keep = (remap[src] >= 0) & (remap[dst] >= 0)
        return Graph.from_edges(
            remap[src[keep]],
            remap[dst[keep]],
            weights=None if w is None else w[keep],
            num_vertices=int(vert.size),
            directed=self.directed,
            drop_self_loops=False,
        )

    def memory_bytes(self) -> int:
        """In-memory footprint of the CSR arrays (reverse CSR excluded)."""
        total = self.indptr.nbytes + self.indices.nbytes
        if self.weights is not None:
            total += self.weights.nbytes
        return int(total)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _adjacency_sorted(self) -> bool:
        if self._sorted_adjacency is None:
            diffs_ok = True
            indptr, indices = self.indptr, self.indices
            if indices.size > 1:
                d = np.diff(indices)
                # Block boundaries may legitimately decrease.
                starts = indptr[1:-1]
                starts = starts[(starts > 0) & (starts < indices.shape[0])]
                mask = np.ones(d.shape[0], dtype=bool)
                mask[starts - 1] = False
                diffs_ok = bool(np.all(d[mask] > 0))
            self._sorted_adjacency = diffs_ok
        return self._sorted_adjacency

    def _ensure_reverse(self) -> None:
        if self._rev_indptr is not None:
            return
        n = self.num_vertices
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        rev_indptr, rev_indices, rev_w = _build_csr(
            self.indices, src, self.weights, n
        )
        self._rev_indptr, self._rev_indices, self._rev_weights = (
            rev_indptr,
            rev_indices,
            rev_w,
        )

    def __repr__(self) -> str:
        kind = "DiGraph" if self.directed else "Graph"
        w = ", weighted" if self.is_weighted else ""
        return f"<{kind} n={self.num_vertices} m={self.num_edges}{w}>"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        same_shape = (
            self.directed == other.directed
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )
        if not same_shape:
            return False
        if (self.weights is None) != (other.weights is None):
            return False
        if self.weights is None:
            return True
        return np.allclose(self.weights, other.weights)

    def __hash__(self) -> int:  # pragma: no cover - identity hashing
        return id(self)


def _build_csr(
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None,
    num_vertices: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Sort edge records by (src, dst) and pack them into CSR arrays."""
    order = np.lexsort((dst, src))
    src_sorted = src[order]
    dst_sorted = dst[order]
    counts = np.bincount(src_sorted, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    slot_weights = None if weights is None else weights[order]
    return indptr, dst_sorted.astype(np.int64), slot_weights

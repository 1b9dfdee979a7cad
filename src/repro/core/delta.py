"""Delta overlays over immutable CSR graphs.

:class:`DeltaCSR` applies :class:`~repro.datagen.dynamic.EdgeBatch`-style
edge insertions to an existing :class:`~repro.core.graph.Graph` without
rebuilding it: new edges live in a *sorted delta segment* beside the base
CSR, merged with the base adjacency only when a caller asks for a
materialized snapshot or a merged neighbour view.  The base arrays are
never written.

This replaces the O(T²) pattern of re-running ``Graph.from_edges`` over
the whole prefix after every batch of a T-window stream
(``DynamicGraphStream.snapshot``): applying a batch costs
``O(batch · log)`` dedup work, and materializing window *t*'s snapshot is
a linear two-way merge of two sorted runs, ``O(n + m_t)``, with no
re-sort of edges that were already in place.

Layout.  Both the base CSR and the delta segment are kept as globally
sorted *directed slot key* arrays (``key = src * n + dst``, one entry
per stored CSR slot, i.e. both directions of an undirected edge).  A
CSR whose adjacency blocks are sorted yields exactly this sorted key
array, so membership tests, per-vertex segment extraction, and the
final merge are all ``searchsorted``/linear-merge operations over the
shared machinery in :mod:`repro.platforms.kernels` style.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import Graph
from repro.errors import GraphFormatError

__all__ = ["DeltaCSR", "empty_csr_graph"]


def empty_csr_graph(num_vertices: int) -> Graph:
    """An unweighted, undirected graph with ``num_vertices`` and no edges."""
    return Graph.from_arrays(
        np.zeros(num_vertices + 1, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        directed=False,
        num_edges=0,
        validate=False,
    )


def _slot_keys(graph: Graph) -> np.ndarray:
    """Sorted directed slot keys (``src * n + dst``) of a CSR graph.

    For a graph whose adjacency blocks are ascending (every graph built
    by ``Graph.from_edges``), the flat key array is already globally
    sorted; otherwise it is sorted once here.
    """
    n = np.int64(graph.num_vertices)
    degrees = np.diff(graph.indptr)
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), degrees)
    keys = src * n + graph.indices
    if not graph._adjacency_sorted():
        keys = np.sort(keys)
    return keys


def _insert_sorted(
    base: np.ndarray, at: np.ndarray, items: np.ndarray
) -> np.ndarray:
    """``np.insert(base, at, items)`` for non-decreasing ``at``.

    Item ``i`` lands at ``at[i] + i``, so one scatter places the items
    and one masked write the base.  ``np.insert`` sorts ``at`` first,
    which makes it several times slower on large inserts.
    """
    out = np.empty(base.size + items.size, dtype=np.result_type(base, items))
    pos = at + np.arange(items.size)
    from_base = np.ones(out.size, dtype=bool)
    from_base[pos] = False
    out[pos] = items
    out[from_base] = base
    return out


class DeltaCSR:
    """Edge-insertion overlay: an immutable base CSR plus a sorted delta.

    ``apply_batch`` deduplicates a batch against the base, the existing
    delta, and itself (self-loops are dropped, matching
    ``Graph.from_edges``), returning the *delta frontier*: the vertices
    incident to edges that were genuinely new.  ``materialize`` merges
    base and delta into a full :class:`Graph`; ``rebase`` additionally
    adopts that snapshot as the new base so long streams keep each
    window's merge linear in the current graph size.
    """

    def __init__(
        self,
        base: Graph | None = None,
        *,
        num_vertices: int | None = None,
    ) -> None:
        if base is None:
            if num_vertices is None:
                raise GraphFormatError(
                    "DeltaCSR needs a base graph or num_vertices"
                )
            base = empty_csr_graph(num_vertices)
        if base.directed or base.is_weighted:
            raise GraphFormatError(
                "DeltaCSR overlays undirected, unweighted graphs"
            )
        self._base = base
        self._base_keys: np.ndarray | None = None  # built lazily
        #: sorted directed slot keys of the delta segment
        self._delta_keys = np.empty(0, dtype=np.int64)
        #: undirected edges added since the last rebase
        self.delta_edges = 0
        #: undirected edges added over the overlay's whole lifetime
        self.total_applied = 0
        #: canonical (min, max) endpoint arrays of the genuinely-new
        #: edges of the most recent ``apply_batch`` — the seed material
        #: for incremental algorithms (boundary messages, residual
        #: injection)
        self.last_applied: tuple[np.ndarray, np.ndarray] = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
        self._snapshot: Graph | None = base
        #: sorted slot keys of ``_snapshot`` when ``materialize`` merged
        #: them (``rebase`` adopts them as the new base's keys)
        self._snapshot_keys: np.ndarray | None = None
        #: whether the base is a snapshot this overlay merged (its
        #: ``indices`` then follow its slot keys' order)
        self._base_merged = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def base(self) -> Graph:
        """The immutable base graph (never modified by the overlay)."""
        return self._base

    @property
    def num_vertices(self) -> int:
        """Vertex count (fixed: streams insert edges, not vertices)."""
        return self._base.num_vertices

    @property
    def num_edges(self) -> int:
        """Undirected edge count of base plus delta."""
        return self._base.num_edges + self.delta_edges

    def degrees(self) -> np.ndarray:
        """Merged per-vertex degree: base degree plus delta degree."""
        merged = np.diff(self._base.indptr).astype(np.int64)
        if self._delta_keys.size:
            merged += np.bincount(
                self._delta_keys // np.int64(self.num_vertices),
                minlength=self.num_vertices,
            )
        return merged

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted merged adjacency of ``v`` (base block ∪ delta block)."""
        n = np.int64(self.num_vertices)
        base_block = self._base.neighbors(v)
        lo = np.searchsorted(self._delta_keys, np.int64(v) * n)
        hi = np.searchsorted(self._delta_keys, (np.int64(v) + 1) * n)
        delta_block = self._delta_keys[lo:hi] % n
        if delta_block.size == 0:
            return base_block
        if base_block.size == 0:
            return delta_block
        out = np.concatenate([base_block, delta_block])
        out.sort()
        return out

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the overlaid graph contains edge ``(u, v)``."""
        key = np.int64(u) * np.int64(self.num_vertices) + np.int64(v)
        pos = np.searchsorted(self._delta_keys, key)
        if pos < self._delta_keys.size and self._delta_keys[pos] == key:
            return True
        return self._base.has_edge(u, v)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _base_key_array(self) -> np.ndarray:
        if self._base_keys is None:
            from repro.platforms.kernels import cached_kernel

            self._base_keys = cached_kernel(
                self._base, "delta:slot_keys", lambda: _slot_keys(self._base)
            )
        return self._base_keys

    def apply_batch(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Insert a batch of undirected edges; returns the delta frontier.

        The frontier is the sorted unique vertex set incident to edges
        that were *genuinely new* — duplicates (within the batch, against
        the delta, or against the base) and self-loops contribute
        nothing, so an all-duplicate batch returns an empty frontier.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise GraphFormatError("src and dst must have equal length")
        n = np.int64(self.num_vertices)
        if src.size and (
            min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n
        ):
            raise GraphFormatError(
                f"edge endpoint out of range [0, {int(n)})"
            )
        empty = np.empty(0, dtype=np.int64)
        a = np.minimum(src, dst)
        b = np.maximum(src, dst)
        keep = a != b  # drop self-loops, matching Graph.from_edges
        a, b = a[keep], b[keep]
        if a.size == 0:
            self.last_applied = (empty, empty.copy())
            return empty
        # Within-batch dedup: sort, then keep the first of each run
        # (np.unique would hash first, which costs more here).
        canon = np.sort(a * n + b)
        first = np.empty(canon.size, dtype=bool)
        first[0] = True
        np.not_equal(canon[1:], canon[:-1], out=first[1:])
        canon = canon[first]
        # Dedup against the existing delta segment …
        pos = np.searchsorted(self._delta_keys, canon)
        found = np.zeros(canon.size, dtype=bool)
        in_range = pos < self._delta_keys.size
        found[in_range] = self._delta_keys[pos[in_range]] == canon[in_range]
        canon = canon[~found]
        # … and against the base CSR.
        if canon.size:
            base_keys = self._base_key_array()
            pos = np.searchsorted(base_keys, canon)
            found = np.zeros(canon.size, dtype=bool)
            in_range = pos < base_keys.size
            found[in_range] = base_keys[pos[in_range]] == canon[in_range]
            canon = canon[~found]
        if canon.size == 0:
            self.last_applied = (empty, empty.copy())
            return empty
        a, b = canon // n, canon % n
        self.last_applied = (a, b)
        mirrored = np.sort(np.concatenate([canon, b * n + a]))
        insert_at = np.searchsorted(self._delta_keys, mirrored)
        self._delta_keys = _insert_sorted(
            self._delta_keys, insert_at, mirrored
        )
        self.delta_edges += int(canon.size)
        self.total_applied += int(canon.size)
        self._snapshot = None
        self._snapshot_keys = None
        return np.flatnonzero(
            np.bincount(np.concatenate([a, b]), minlength=self.num_vertices)
        )

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def materialize(self) -> Graph:
        """The overlaid graph as a real :class:`Graph` (cached until the
        next ``apply_batch``).

        A linear two-way merge of the base's sorted slot keys with the
        delta segment — no lexsort over edges that are already in place.
        """
        if self._snapshot is not None:
            return self._snapshot
        n = np.int64(self.num_vertices)
        base_keys = self._base_key_array()
        insert_at = np.searchsorted(base_keys, self._delta_keys)
        merged = _insert_sorted(base_keys, insert_at, self._delta_keys)
        self._snapshot_keys = merged
        # Split only the delta into (vertex, neighbour): a base this
        # overlay merged stores its neighbours in key order already.
        base_nbrs = (
            self._base.indices if self._base_merged else base_keys % n
        )
        indices = _insert_sorted(base_nbrs, insert_at, self._delta_keys % n)
        indptr = self._base.indptr.copy()
        indptr[1:] += np.cumsum(
            np.bincount(self._delta_keys // n, minlength=self.num_vertices)
        )
        self._snapshot = Graph.from_arrays(
            indptr,
            indices,
            directed=False,
            num_edges=self.num_edges,
            validate=False,
        )
        return self._snapshot

    def rebase(self) -> Graph:
        """Adopt the materialized snapshot as the new base.

        Returns that snapshot.  Keeping the delta segment short between
        rebases is what makes replaying a T-window stream O(total edges)
        instead of O(T²): each window merges only its own batch into the
        running CSR.  The merged key array ``materialize`` built is the
        new base's slot-key array, so the next ``apply_batch`` does not
        rebuild it.
        """
        snapshot = self.materialize()
        if snapshot is not self._base:
            self._base = snapshot
            self._base_keys = self._snapshot_keys
            self._base_merged = True
            self._delta_keys = np.empty(0, dtype=np.int64)
            self.delta_edges = 0
        return snapshot

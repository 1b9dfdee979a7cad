"""Shared array kernels for the four engine families.

Every vectorized ("bulk") execution path — vertex-, edge-, block-, and
subgraph-centric — is built from the same handful of flat-CSR
primitives: segment expansion (`np.repeat` gathers instead of
per-vertex slicing), the out-part histogram that meters a neighbour
broadcast without expanding it, lexsorted CSR construction, the forward edge
orientation behind the O(m^1.5) subgraph algorithms, the triangle and
k-clique censuses built on it, the segmented mode behind every bulk
LPA, and chunked random draws.  This module is their single home; the
per-engine packages import from here and add only metering.

Design invariants the bulk paths rely on:

* every helper is deterministic and allocation-order free — outputs
  depend only on inputs, never on dict/set iteration order;
* integer-valued outputs stay integer-valued (int64 everywhere), so
  metering sums built on them are exact in float64 regardless of
  aggregation order — which is why a bulk pass meters exactly what the
  per-element loop it replaced metered;
* within-segment element order is preserved ascending, matching the
  per-vertex ``np.sort`` of the list-of-arrays form.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterator, NamedTuple

import numpy as np

from repro.core.graph import Graph

__all__ = [
    "segment_slots",
    "expand_segments",
    "out_part_histogram",
    "broadcast_pair_counts",
    "lexsorted_csr",
    "segmented_mode",
    "vertex_order_positions",
    "forward_edge_arrays",
    "self_loop_counts",
    "simple_degrees",
    "clustering_coefficients",
    "closed_wedge_corners",
    "unique_pull_pairs",
    "triangle_census",
    "CliqueLevel",
    "clique_expansion_levels",
    "clique_expansion_census",
    "message_matrices",
    "ChunkedDrawBuffer",
    "cached_kernel",
    "kernel_cache_stats",
    "clear_kernel_cache",
]

_EMPTY = np.empty(0, dtype=np.int64)

# ----------------------------------------------------------------------
# Per-graph derived-kernel cache
# ----------------------------------------------------------------------

#: ``id(graph) -> {key: artifact}``.  Keyed by identity (graphs hash by
#: identity already) so lookups never touch the arrays; a
#: ``weakref.finalize`` registered on first insert pops the whole
#: per-graph dict when the graph is collected, which also makes id reuse
#: safe — a dead graph's entry is gone before its id can be recycled.
_KERNEL_CACHE: dict[int, dict[object, object]] = {}
_KERNEL_CACHE_HITS = 0
_KERNEL_CACHE_MISSES = 0


def cached_kernel(graph: Graph, key: object, builder: Callable[[], object]):
    """Return ``builder()`` memoized per ``(graph identity, key)``.

    Derived artifacts — forward CSR views, adjacency lists, edge
    placements — are pure functions of the graph, but historically every
    case leg recomputed them.  This cache computes each once per graph
    per process.  Eviction is GC-driven: entries die with the graph, so
    a long-lived worker process mapping many datasets cannot grow the
    cache beyond its live graphs.

    Hits and misses are tallied both process-locally (see
    :func:`kernel_cache_stats`) and, when a tracer is active, on the
    ``kernel_cache_hits`` / ``kernel_cache_misses`` counters.
    """
    global _KERNEL_CACHE_HITS, _KERNEL_CACHE_MISSES
    gid = id(graph)
    per_graph = _KERNEL_CACHE.get(gid)
    if per_graph is not None and key in per_graph:
        _KERNEL_CACHE_HITS += 1
        _note_cache_event(hit=True)
        return per_graph[key]
    _KERNEL_CACHE_MISSES += 1
    _note_cache_event(hit=False)
    artifact = builder()
    if per_graph is None:
        per_graph = {}
        _KERNEL_CACHE[gid] = per_graph
        weakref.finalize(graph, _KERNEL_CACHE.pop, gid, None)
    per_graph[key] = artifact
    return artifact


def _note_cache_event(*, hit: bool) -> None:
    """Feed one cache event to the active tracer (no-op when untraced)."""
    from repro.obs import KERNEL_CACHE_HITS, KERNEL_CACHE_MISSES, get_tracer

    tracer = get_tracer()
    if tracer.enabled:
        tracer.add(KERNEL_CACHE_HITS if hit else KERNEL_CACHE_MISSES, 1.0)


def kernel_cache_stats() -> dict[str, int]:
    """Process-local cache tallies: hits, misses, live cached graphs."""
    return {
        "hits": _KERNEL_CACHE_HITS,
        "misses": _KERNEL_CACHE_MISSES,
        "graphs": len(_KERNEL_CACHE),
    }


def clear_kernel_cache() -> None:
    """Drop every cached artifact and zero the tallies (test hook)."""
    global _KERNEL_CACHE_HITS, _KERNEL_CACHE_MISSES
    _KERNEL_CACHE.clear()
    _KERNEL_CACHE_HITS = 0
    _KERNEL_CACHE_MISSES = 0


def segment_slots(
    indptr: np.ndarray, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(slots, counts)``: the flat CSR slot index of every element in
    every selected segment (segments concatenated in ``ids`` order) and
    the per-id segment lengths — one `np.repeat`-based gather instead of
    a per-vertex slicing loop.

    Both outputs are int64 in every branch — empty ``ids``, all-empty
    segments, and mixed inputs included — regardless of the
    ``indptr``/``ids`` input dtypes, so downstream index arithmetic
    never changes dtype between the empty and non-empty cases.
    """
    ids = np.asarray(ids, dtype=np.int64)
    counts = np.asarray(
        indptr[ids + 1] - indptr[ids], dtype=np.int64
    )
    total = int(counts.sum())
    if total == 0:
        return _EMPTY.copy(), counts
    # Slot k of the output lies in segment i at offset k - begin_i, so
    # its CSR slot is k + (indptr[ids[i]] - begin_i): one repeat of a
    # per-segment shift.
    begins = np.cumsum(counts) - counts
    shift = np.asarray(indptr, dtype=np.int64)[ids] - begins
    return np.arange(total, dtype=np.int64) + np.repeat(shift, counts), counts


def expand_segments(
    indptr: np.ndarray, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`segment_slots` plus ``owner_pos``, the position *within
    ``ids``* owning each slot: ``(slots, owner_pos, counts)``, all int64.

    ``owner_pos`` is a second repeat over every slot; callers that do
    not need it call :func:`segment_slots`.
    """
    slots, counts = segment_slots(indptr, ids)
    owner_pos = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    return slots, owner_pos, counts


def out_part_histogram(
    indptr: np.ndarray, indices: np.ndarray, owner: np.ndarray, parts: int
) -> np.ndarray:
    """``H[v, q]``: how many of ``v``'s CSR slots hold a neighbour that
    ``owner`` places on part ``q``, as an ``(n, parts)`` int64 array.

    One pass over every slot; :func:`broadcast_pair_counts` then meters
    any neighbour broadcast without touching its edges.
    """
    n = indptr.shape[0] - 1
    row = np.repeat(np.arange(n, dtype=np.int64) * parts, np.diff(indptr))
    return np.bincount(
        row + owner[indices], minlength=n * parts
    ).reshape(n, parts)


def broadcast_pair_counts(
    hist: np.ndarray, owner: np.ndarray, senders: np.ndarray, parts: int
) -> np.ndarray:
    """``(parts, parts)`` int64 message counts when every entry of
    ``senders`` (repeats count again) sends along all of its CSR slots.

    ``M[p, q] = sum(hist[v, q] for v in senders if owner[v] == p)``:
    O(senders · parts) work, equal to a ``np.bincount`` of
    ``owner[src] * parts + owner[dst]`` over the expanded edges.
    """
    cells = (owner[senders] * parts)[:, None] + np.arange(parts)
    return np.bincount(
        cells.ravel(), weights=hist[senders].ravel(), minlength=parts * parts
    ).astype(np.int64).reshape(parts, parts)


def lexsorted_csr(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int,
    *aligned: np.ndarray | None,
) -> tuple:
    """Sort edge records by ``(src, dst)`` and pack them into a CSR.

    Returns ``(indptr, src_sorted, dst_sorted, *aligned_sorted)`` where
    each element of ``aligned`` (or ``None``, passed through) is
    reordered with the same lexsort permutation.  This is the one CSR
    construction shared by the forward-edge view and the edge-centric
    gather-adjacency replay — per-source segments contiguous, neighbour
    ids ascending within each segment.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    order = np.lexsort((dst, src))
    src_sorted, dst_sorted = src[order], dst[order]
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(src_sorted, minlength=num_vertices), out=indptr[1:]
    )
    extras = tuple(None if a is None else a[order] for a in aligned)
    return (indptr, src_sorted, dst_sorted, *extras)


def segmented_mode(
    seg: np.ndarray, values: np.ndarray, fill: np.ndarray
) -> np.ndarray:
    """Most frequent value per segment, ties to the smallest value.

    ``values[i]`` belongs to segment ``seg[i]`` (ids in any order);
    ``fill`` holds one entry per segment, kept by segments with no
    values.  Returns a fresh int64 array shaped like ``fill``.  One sort
    of the packed keys ``seg * span + value`` (``span = max + 1``) lays
    each segment's equal values out as runs in ascending value order,
    so the first run reaching the segment's top count is the smallest
    modal value — the per-segment ``np.unique(..., return_counts=True)``
    mode without the loop.  Raises ``ValueError`` on a negative value or
    when a packed key would overflow int64.
    """
    out = np.array(fill, dtype=np.int64)
    seg = np.asarray(seg, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        return out
    if values.min() < 0:
        raise ValueError("segmented_mode needs non-negative values")
    span = int(values.max()) + 1
    if (int(seg.max()) + 1) * span - 1 > np.iinfo(np.int64).max:
        raise ValueError("segmented_mode keys would overflow int64")
    keys = seg * span + values
    keys.sort()
    run_start = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    run_key = keys[run_start]
    run_count = np.diff(np.r_[run_start, keys.size])
    run_seg = run_key // span
    seg_start = np.flatnonzero(np.r_[True, run_seg[1:] != run_seg[:-1]])
    top = np.maximum.reduceat(run_count, seg_start)
    seg_runs = np.diff(np.r_[seg_start, run_seg.size])
    top_key = run_key[run_count == np.repeat(top, seg_runs)]
    top_seg = top_key // span
    first = np.r_[True, top_seg[1:] != top_seg[:-1]]
    out[top_seg[first]] = top_key[first] % span
    return out


def vertex_order_positions(graph: Graph) -> np.ndarray:
    """Position of each vertex in the (degree, id) total order.

    Orienting edges from lower to higher position makes the orientation
    acyclic with forward degrees bounded by O(sqrt(m)), the standard
    trick behind O(m^1.5) triangle counting.
    """
    n = graph.num_vertices
    degrees = graph.out_degrees()
    rank = np.lexsort((np.arange(n), degrees))
    position = np.empty(n, dtype=np.int64)
    position[rank] = np.arange(n)
    return position


def forward_edge_arrays(graph: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat CSR view of the forward orientation: ``(indptr, src, dst)``.

    Each undirected edge appears once, oriented toward the higher
    (degree, id) position (:func:`vertex_order_positions`), as flat
    ``src``/``dst`` arrays sorted lexicographically, plus the CSR
    ``indptr`` over ``src`` segments; ``dst`` is ascending within each
    segment.  Self-loops never appear (a vertex's position is not
    greater than its own), so triangle and clique passes built on this
    view are immune to them by construction.  Memoized per graph via
    :func:`cached_kernel`; callers must treat the returned arrays as
    read-only.
    """
    return cached_kernel(
        graph, "forward_edge_arrays", lambda: _forward_edge_arrays(graph)
    )


def _forward_edge_arrays(
    graph: Graph,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    und = graph.to_undirected()
    n = und.num_vertices
    position = vertex_order_positions(und)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(und.indptr))
    dst = und.indices
    keep = position[dst] > position[src]
    indptr, fsrc, fdst = lexsorted_csr(src[keep], dst[keep], n)
    return indptr, fsrc, fdst


def self_loop_counts(graph: Graph) -> np.ndarray:
    """(n,) int64 — adjacency slots of each vertex pointing at itself."""
    n = graph.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    loops = src == graph.indices
    return np.bincount(src[loops], minlength=n).astype(np.int64)


def simple_degrees(graph: Graph) -> np.ndarray:
    """(n,) float64 simple-graph degrees: out-degrees minus self-loops.

    The wedge denominator ``d * (d - 1)`` of the clustering coefficient
    is defined over the *simple* graph; a self-loop contributes no
    wedge, so counting its slot would deflate every looped vertex's
    coefficient.
    """
    return (graph.out_degrees() - self_loop_counts(graph)).astype(np.float64)


def clustering_coefficients(graph: Graph, triangles: np.ndarray) -> np.ndarray:
    """(n,) float64 local clustering coefficients from triangle counts.

    ``triangles[v]`` counts the triangles through ``v``; the coefficient
    is ``2 * triangles / (d * (d - 1))`` over the undirected view's
    :func:`simple_degrees`, and degree-0/1 vertices (no wedges) get 0.0.
    """
    degrees = simple_degrees(graph.to_undirected())
    wedges = degrees * (degrees - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(wedges > 0, 2.0 * triangles / wedges, 0.0)


def closed_wedge_corners(
    findptr: np.ndarray,
    fsrc: np.ndarray,
    fdst: np.ndarray,
    num_vertices: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corners ``(v, u, w)`` of every closed forward wedge.

    A wedge roots at ``v``, walks the forward edge ``(v, u)``, then a
    forward edge ``(u, w)``; it is closed — a triangle — when ``(v, w)``
    is itself a forward edge, tested by binary search over the sorted
    flat edge keys ``src * n + dst``.  One triangle yields exactly one
    closed wedge, so TC totals are ``v.size`` and LCC corner credits
    are three bincounts.
    """
    if fsrc.size == 0:
        return _EMPTY.copy(), _EMPTY.copy(), _EMPTY.copy()
    slots, owner_pos, _ = expand_segments(findptr, fdst)
    v = fsrc[owner_pos]
    u = fdst[owner_pos]
    w = fdst[slots]
    wedge_keys = v * num_vertices + w
    edge_keys = fsrc * num_vertices + fdst  # sorted: (fsrc, fdst) lexsorted
    hit = np.searchsorted(edge_keys, wedge_keys)
    hit = np.minimum(hit, edge_keys.size - 1)
    closed = edge_keys[hit] == wedge_keys
    return v[closed], u[closed], w[closed]


def unique_pull_pairs(
    root_parts: np.ndarray,
    targets: np.ndarray,
    owner: np.ndarray,
    num_vertices: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Dedupe remote adjacency pulls per (rooting part, vertex) pair.

    ``root_parts[i]`` requests the forward list of ``targets[i]``; a
    request is remote when the target's owner differs.  Returns the
    unique remote pairs as ``(pull_root, pull_vertex)`` plus the total
    remote request count — a per-round pull cache meters exactly one
    message per unique pair, and the difference is its cache-hit tally.
    """
    root_parts = np.asarray(root_parts, dtype=np.int64)
    remote = owner[targets] != root_parts
    calls = int(np.count_nonzero(remote))
    if calls == 0:
        return _EMPTY.copy(), _EMPTY.copy(), 0
    keys = np.unique(root_parts[remote] * num_vertices + targets[remote])
    return keys // num_vertices, keys % num_vertices, calls


def triangle_census(
    findptr: np.ndarray,
    fsrc: np.ndarray,
    fdst: np.ndarray,
    num_vertices: int,
    owner: np.ndarray,
    parts: int,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray,
           np.ndarray, np.ndarray, int]:
    """One wave of forward-edge triangle tasks over the forward CSR.

    Every forward edge ``(v, u)`` is a task rooted at ``owner[v]``: it
    costs ``fdeg(v) + fdeg(u)`` ops there, requests ``u``'s forward
    list (remote when ``owner[u] != owner[v]``), and closes one
    triangle per common forward neighbour.

    Returns ``(corners, ops, pull_root, pull_vertex, remote_calls)``:
    the :func:`closed_wedge_corners` triple ``(v, u, w)`` (one row per
    triangle), per-part float64 ops, the unique remote pull pairs (see
    :func:`unique_pull_pairs`), and the total remote request count —
    the shape :func:`clique_expansion_census` returns.
    """
    owner = np.asarray(owner, dtype=np.int64)
    fdeg = np.diff(findptr)
    roots = owner[fsrc]
    ops = np.bincount(
        roots, weights=(fdeg[fsrc] + fdeg[fdst]).astype(np.float64),
        minlength=parts,
    )
    pull_root, pull_vertex, calls = unique_pull_pairs(
        roots, fdst, owner, num_vertices
    )
    corners = closed_wedge_corners(findptr, fsrc, fdst, num_vertices)
    return corners, ops, pull_root, pull_vertex, calls


class CliqueLevel(NamedTuple):
    """One level of k-clique expansions as aligned int64 arrays: each
    row expands candidate ``cand`` of a task rooted at ``root`` whose
    last member is ``vertex`` and whose ``size`` candidates ``C`` narrow
    to ``narrowed = |C ∩ forward(cand)|``."""

    root: np.ndarray
    vertex: np.ndarray
    cand: np.ndarray
    size: np.ndarray
    narrowed: np.ndarray


def clique_expansion_levels(
    findptr: np.ndarray,
    fsrc: np.ndarray,
    fdst: np.ndarray,
    num_vertices: int,
    k: int,
) -> Iterator[CliqueLevel]:
    """Level-synchronous k-clique expansion over the forward CSR.

    Every vertex roots a level-1 task whose candidates are its forward
    list.  Level ``L`` expands every candidate of every level-``L``
    task; an expansion whose narrowed set can still complete a clique
    becomes a level-``L + 1`` task (last member ``cand``), and the
    narrowed counts of level ``k - 2`` sum to the clique count.
    Membership is a binary search of the sorted flat edge keys.

    Yields levels ``1 .. k - 2``, stopping at the first without
    expansions.  The expansion *set* equals a per-root depth-first
    search's; only traversal order differs.
    """
    n = num_vertices
    if fsrc.size == 0:
        return
    edge_keys = fsrc * n + fdst
    cand = fdst
    node_indptr = findptr
    node_vertex = node_root = np.arange(n, dtype=np.int64)
    for level in range(1, k - 1):
        if cand.size == 0:
            return
        counts = np.diff(node_indptr)
        parent = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        # Narrow each expansion against its parent's candidate segment.
        slots, child_pos, _ = expand_segments(node_indptr, parent)
        w = cand[slots]
        keys = cand[child_pos] * n + w
        hit = np.minimum(np.searchsorted(edge_keys, keys), edge_keys.size - 1)
        member = edge_keys[hit] == keys
        narrowed = np.bincount(child_pos[member], minlength=cand.size)
        root = node_root[parent]
        yield CliqueLevel(root, node_vertex[parent], cand, counts[parent],
                          narrowed)
        if level == k - 2:
            return
        keep = narrowed >= k - level - 2
        node_indptr = np.zeros(np.count_nonzero(keep) + 1, dtype=np.int64)
        np.cumsum(narrowed[keep], out=node_indptr[1:])
        node_vertex, node_root = cand[keep], root[keep]
        cand = w[member & keep[child_pos]]


def clique_expansion_census(
    findptr: np.ndarray,
    fsrc: np.ndarray,
    fdst: np.ndarray,
    num_vertices: int,
    k: int,
    owner: np.ndarray,
    parts: int,
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, int]:
    """The block- and subgraph-centric engines' KC: the
    :func:`clique_expansion_levels` folded with every task at its
    root's part.

    Spawning root ``v`` costs ``max(1, fdeg(v))`` ops; expanding
    candidate ``u`` of a task with candidates ``C`` costs
    ``|C| + fdeg(u)`` ops and requests ``u``'s forward list.  Returns
    ``(total, ops, pull_root, pull_vertex, remote_calls)`` — the clique
    count, per-part float64 ops, and :func:`unique_pull_pairs` over
    every expansion.
    """
    owner = np.asarray(owner, dtype=np.int64)
    fdeg = np.diff(findptr)
    ops = np.bincount(
        owner, weights=np.maximum(fdeg, 1).astype(np.float64), minlength=parts
    )
    total = 0
    roots, cands = [_EMPTY], [_EMPTY]
    levels = clique_expansion_levels(findptr, fsrc, fdst, num_vertices, k)
    for depth, level in enumerate(levels, start=1):
        rb = owner[level.root]
        ops += np.bincount(
            rb, weights=(level.size + fdeg[level.cand]).astype(np.float64),
            minlength=parts,
        )
        roots.append(rb)
        cands.append(level.cand)
        if depth == k - 2:
            total = int(level.narrowed.sum())
    pulls = unique_pull_pairs(
        np.concatenate(roots), np.concatenate(cands), owner, num_vertices
    )
    return (total, ops, *pulls)


def message_matrices(
    src_parts: np.ndarray, dst_parts: np.ndarray, nbytes, parts: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(counts, total_bytes)`` ``(parts, parts)`` matrices of a batch
    of messages for ``TraceRecorder.add_message_counts``; ``nbytes`` is
    one payload or one per message.  Payloads are whole numbers of
    bytes, so the sums equal one ``add_message`` per message exactly."""
    pair = np.asarray(src_parts, dtype=np.int64) * parts + dst_parts
    counts = np.bincount(pair, minlength=parts * parts)
    if np.ndim(nbytes):
        total = np.bincount(pair, weights=nbytes, minlength=parts * parts)
    else:
        total = float(nbytes) * counts
    return (counts.reshape(parts, parts),
            np.asarray(total, dtype=np.float64).reshape(parts, parts))


class ChunkedDrawBuffer:
    """Batched uniform(0, 1] draws (one numpy call per 64k draws).

    Scalar consumers call :meth:`next`; vectorized consumers call
    :meth:`take`, which reads the *same* stream with refills at the
    same 64k boundaries, so scalar and bulk sampling paths stay
    draw-for-draw identical.
    """

    def __init__(self, rng: np.random.Generator, size: int = 65536) -> None:
        self._rng = rng
        self._size = size
        self._buffer = rng.random(size)
        self._cursor = 0

    def next(self) -> float:
        """One draw; refills the buffer at the chunk boundary."""
        if self._cursor >= self._size:
            self._buffer = self._rng.random(self._size)
            self._cursor = 0
        value = self._buffer[self._cursor]
        self._cursor += 1
        # Map [0, 1) to (0, 1]: f = 1 - value keeps 0 excluded.
        return 1.0 - value

    def take(self, count: int) -> np.ndarray:
        """``count`` draws at once, consuming the same stream ``next``
        reads (refills happen at the same 64k boundaries)."""
        out = np.empty(count, dtype=np.float64)
        filled = 0
        while filled < count:
            if self._cursor >= self._size:
                self._buffer = self._rng.random(self._size)
                self._cursor = 0
            avail = min(self._size - self._cursor, count - filled)
            out[filled:filled + avail] = self._buffer[
                self._cursor:self._cursor + avail
            ]
            self._cursor += avail
            filled += avail
        return 1.0 - out

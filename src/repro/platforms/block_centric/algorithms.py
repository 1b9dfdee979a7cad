"""Block-centric (Grape) implementations of the eight core algorithms.

Each function is a PEval/IncEval pass pair over
:class:`~repro.platforms.block_centric.engine.BlockCentricEngine`: blocks
run sequential-kernel work internally (charged as ops) and exchange
messages only on cut edges between rounds.  Outputs equal the reference
kernels; the round counts track block-crossings rather than graph
diameter, reproducing Grape's diameter insensitivity (Section 8.2).
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Any, Callable

import numpy as np

from repro.errors import GraphStructureError
from repro.platforms.block_centric.engine import BlockCentricEngine
from repro.platforms.kernels import (
    clique_expansion_census,
    clustering_coefficients,
    forward_edge_arrays,
    message_matrices,
    segmented_mode,
    triangle_census,
)

__all__ = [
    "pagerank_blocks",
    "lpa_blocks",
    "sssp_blocks",
    "wcc_blocks",
    "bc_blocks",
    "cd_blocks",
    "tc_blocks",
    "kc_blocks",
    "bfs_blocks",
    "lcc_blocks",
]


def bfs_blocks(engine: BlockCentricEngine, *, source: int = 0) -> np.ndarray:
    """BFS levels via unit-weight block SSSP (LDBC comparison suite)."""
    dist = sssp_blocks(engine, source=source)
    levels = np.where(np.isinf(dist), -1, dist).astype(np.int64)
    return levels


def _census_round(
    engine: BlockCentricEngine, census: Callable[..., tuple]
) -> Any:
    """Run one forward-CSR census as a single PEval round and meter it.

    ``census`` is :func:`~repro.platforms.kernels.triangle_census` or a
    bound :func:`~repro.platforms.kernels.clique_expansion_census`; each
    block roots the tasks of its own vertices.  Ops are charged per
    block, and each remote forward list is pulled once per (rooting
    block, vertex), metered as one block-pair message matrix.
    Returns the census's first element.
    """
    graph = engine.graph
    findptr, fsrc, fdst = forward_edge_arrays(graph)
    engine.begin_round()
    result, ops, pull_root, pull_vertex, _ = census(
        findptr, fsrc, fdst, graph.num_vertices,
        owner=engine.block_of, parts=engine.parts,
    )
    for b in np.flatnonzero(ops).tolist():
        engine.charge(b, float(ops[b]))
    engine.send_matrix(*message_matrices(
        engine.block_of[pull_vertex], pull_root,
        8.0 * np.diff(findptr)[pull_vertex], engine.parts,
    ))
    engine.end_round()
    return result


def lcc_blocks(engine: BlockCentricEngine) -> np.ndarray:
    """LCC: the TC round, with each triangle credited to its three
    corners (LDBC comparison suite)."""
    n = engine.graph.num_vertices
    v, u, w = _census_round(engine, triangle_census)
    triangles = (np.bincount(v, minlength=n) + np.bincount(u, minlength=n)
                 + np.bincount(w, minlength=n))
    return clustering_coefficients(engine.graph, triangles)


def _cut_matrix(engine: BlockCentricEngine) -> np.ndarray:
    """(P, P) matrix of directed cut-adjacency-slot counts."""
    graph = engine.graph
    n = graph.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    dst = graph.indices
    bs, bd = engine.block_of[src], engine.block_of[dst]
    cut = np.zeros((engine.parts, engine.parts))
    np.add.at(cut, (bs, bd), 1)
    np.fill_diagonal(cut, 0)
    return cut


def _block_slot_counts(engine: BlockCentricEngine) -> np.ndarray:
    """Adjacency slots owned by each block."""
    degrees = engine.graph.out_degrees().astype(np.float64)
    return np.bincount(engine.block_of, weights=degrees, minlength=engine.parts)


def _send_cut(engine: BlockCentricEngine, cut: np.ndarray, nbytes: float) -> None:
    """Meter one message per cut slot (a full boundary exchange)."""
    engine.send_matrix(cut, nbytes * cut)


def pagerank_blocks(
    engine: BlockCentricEngine, *, damping: float = 0.85, iterations: int = 10
) -> np.ndarray:
    """PR: each round every block aggregates its local contributions and
    ships boundary contributions across cut edges."""
    graph = engine.graph
    n = graph.num_vertices
    degrees = graph.out_degrees().astype(np.float64)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    dst = graph.indices
    slots = _block_slot_counts(engine)
    cut = _cut_matrix(engine)
    dangling = degrees == 0

    ranks = np.full(n, 1.0 / n if n else 0.0)
    base = (1.0 - damping) / n if n else 0.0
    for _ in range(iterations):
        engine.begin_round()
        contrib = np.where(dangling, 0.0, ranks / np.maximum(degrees, 1.0))
        new_ranks = np.full(n, base)
        np.add.at(new_ranks, dst, damping * contrib[src])
        new_ranks += damping * ranks[dangling].sum() / n
        for b in range(engine.parts):
            engine.charge(b, slots[b] + engine.blocks[b].size)
        _send_cut(engine, cut, 8.0)
        engine.end_round()
        ranks = new_ranks
    return ranks


def lpa_blocks(engine: BlockCentricEngine, *, iterations: int = 10) -> np.ndarray:
    """Synchronous LPA with per-round boundary label exchange."""
    graph = engine.graph.to_undirected()
    n = graph.num_vertices
    labels = np.arange(n, dtype=np.int64)
    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    slots = _block_slot_counts(engine)
    cut = _cut_matrix(engine)

    for _ in range(iterations):
        engine.begin_round()
        updated = segmented_mode(owner, labels[graph.indices], labels)
        changed = bool((updated != labels).any())
        for b in range(engine.parts):
            engine.charge(b, slots[b])
        _send_cut(engine, cut, 8.0)
        engine.end_round()
        labels = updated
        if not changed:
            break
    return labels


def sssp_blocks(engine: BlockCentricEngine, *, source: int = 0) -> np.ndarray:
    """Block Dijkstra: each round every block runs a local multi-source
    Dijkstra from its updated vertices, then improvements cross cut
    edges.  Rounds track block-crossings, not hop diameter."""
    graph = engine.graph
    n = graph.num_vertices
    if not 0 <= source < n:
        raise GraphStructureError(f"source {source} out of range")
    weighted = graph.is_weighted
    block_of = engine.block_of

    dist = np.full(n, np.inf)
    dist[source] = 0.0
    seeds: dict[int, list[int]] = {int(block_of[source]): [source]}

    while seeds:
        engine.begin_round()
        boundary: list[tuple[int, float]] = []  # (vertex, candidate dist)
        for b, starts in seeds.items():
            ops = 0.0
            heap = [(float(dist[v]), v) for v in starts]
            heapq.heapify(heap)
            while heap:
                d, v = heapq.heappop(heap)
                ops += 1.0
                if d > dist[v]:
                    continue
                neigh = graph.neighbors(v)
                weights = graph.neighbor_weights(v) if weighted else None
                for idx, u in enumerate(neigh.tolist()):
                    w = float(weights[idx]) if weighted else 1.0
                    nd = d + w
                    ops += 1.0
                    if nd >= dist[u]:
                        continue
                    if block_of[u] == b:
                        dist[u] = nd
                        heapq.heappush(heap, (nd, u))
                    else:
                        boundary.append((u, nd))
                        engine.send(b, int(block_of[u]), 16.0)
            engine.charge(b, ops)
        engine.end_round()
        seeds = {}
        for u, nd in boundary:
            if nd < dist[u]:
                dist[u] = nd
                seeds.setdefault(int(block_of[u]), []).append(u)
    return dist


def wcc_blocks(engine: BlockCentricEngine) -> np.ndarray:
    """WCC: per-block sequential union-find (PEval), then boundary label
    merging rounds (IncEval) — Grape "directly calls the sequential
    Disjoint Set" (Section 8.2)."""
    graph = engine.graph.to_undirected()
    n = graph.num_vertices
    block_of = engine.block_of
    labels = np.arange(n, dtype=np.int64)

    # PEval: local union-find per block.
    engine.begin_round()
    local_root = np.arange(n, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while local_root[root] != root:
            root = local_root[root]
        while local_root[x] != root:
            local_root[x], x = root, local_root[x]
        return root

    src, dst, _ = graph.edge_arrays()
    internal = block_of[src] == block_of[dst]
    for a, b in zip(src[internal].tolist(), dst[internal].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            local_root[max(ra, rb)] = min(ra, rb)
    for v in range(n):
        labels[v] = find(v)
    for b in range(engine.parts):
        engine.charge(b, float((block_of[src[internal]] == b).sum())
                      + engine.blocks[b].size)
    engine.end_round()

    # IncEval: min-label exchange over cut edges until fixpoint.
    cut_src, cut_dst = src[~internal], dst[~internal]
    while True:
        engine.begin_round()
        updates: dict[int, int] = {}
        for a, b in zip(cut_src.tolist(), cut_dst.tolist()):
            la, lb = int(labels[a]), int(labels[b])
            if la == lb:
                continue
            lo = min(la, lb)
            if la != lo:
                updates[la] = min(updates.get(la, la), lo)
                engine.send(int(block_of[b]), int(block_of[a]), 8.0)
            if lb != lo:
                updates[lb] = min(updates.get(lb, lb), lo)
                engine.send(int(block_of[a]), int(block_of[b]), 8.0)
        if updates:
            # Each block relabels its members (sequential scan).
            relabel = np.arange(n, dtype=np.int64)
            for old, new in updates.items():
                relabel[old] = new
            labels = relabel[labels]
            for b in range(engine.parts):
                engine.charge(b, engine.blocks[b].size)
        engine.end_round()
        if not updates:
            return labels


def bc_blocks(engine: BlockCentricEngine, *, source: int = 0) -> np.ndarray:
    """Single-source Brandes: block-wave depth computation, then
    level-synchronized sigma and delta passes over cut DAG edges.

    Phase 1 (depths) is the :func:`sssp_blocks` pass.  Phases 2 and 3
    accumulate sigma and delta with ``np.add.at`` over the DAG edges of
    one level per round; every block is charged ``max(1, count)`` of
    that level's DAG edges it owns, and each cut DAG edge is one
    16-byte message, sent as one counted ``send`` per block pair.
    """
    graph = engine.graph
    n = graph.num_vertices
    block_of = engine.block_of
    parts = engine.parts

    depth_f = sssp_blocks(engine, source=source)
    depth = np.where(np.isinf(depth_f), -1, depth_f).astype(np.int64)
    max_depth = int(depth.max()) if n else -1

    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    dst = graph.indices
    dag = depth[src] + 1 == depth[dst]
    dag &= (depth[src] >= 0)
    dag_src, dag_dst = src[dag], dst[dag]
    dag_level = depth[dag_dst]

    def _send_pairs(from_blocks: np.ndarray, to_blocks: np.ndarray) -> None:
        engine.send_matrix(*message_matrices(from_blocks, to_blocks, 16.0,
                                             parts))

    # Phase 2: sigma, one round per level.
    sigma = np.zeros(n, dtype=np.float64)
    sigma[source] = 1.0
    for level in range(1, max_depth + 1):
        engine.begin_round()
        sel = dag_level == level
        s, d = dag_src[sel], dag_dst[sel]
        contrib = sigma[s]
        np.add.at(sigma, d, contrib)
        counts = np.bincount(block_of[d], minlength=parts)
        for b in range(parts):
            engine.charge(b, max(1.0, float(counts[b])))
        cross = block_of[s] != block_of[d]
        _send_pairs(block_of[s[cross]], block_of[d[cross]])
        engine.end_round()

    # Phase 3: delta, deepest level first.
    delta = np.zeros(n, dtype=np.float64)
    for level in range(max_depth, 0, -1):
        engine.begin_round()
        sel = dag_level == level
        s, d = dag_src[sel], dag_dst[sel]
        contrib = sigma[s] / sigma[d] * (1.0 + delta[d])
        np.add.at(delta, s, contrib)
        counts = np.bincount(block_of[s], minlength=parts)
        for b in range(parts):
            engine.charge(b, max(1.0, float(counts[b])))
        cross = block_of[s] != block_of[d]
        _send_pairs(block_of[d[cross]], block_of[s[cross]])
        engine.end_round()
    delta[source] = 0.0
    return delta


def cd_blocks(engine: BlockCentricEngine) -> np.ndarray:
    """Coreness: blocks peel cascades locally (sequential, no supersteps
    inside a block); only cross-block decrements cost a round."""
    graph = engine.graph.to_undirected()
    n = graph.num_vertices
    block_of = engine.block_of
    degree = graph.out_degrees().astype(np.int64).copy()
    removed = np.zeros(n, dtype=bool)
    coreness = np.zeros(n, dtype=np.int64)
    k = 1
    pending: dict[int, list[int]] = {}  # block -> candidate vertices

    alive_count = n
    while alive_count > 0:
        if not pending:
            # Bump k until someone is peelable.
            while True:
                candidates = np.nonzero(~removed & (degree < k))[0]
                if candidates.size:
                    break
                k += 1
            for v in candidates.tolist():
                pending.setdefault(int(block_of[v]), []).append(v)
        engine.begin_round()
        remote_decrements: dict[int, list[int]] = {}
        for b, queue in pending.items():
            ops = 0.0
            stack = [v for v in queue if not removed[v] and degree[v] < k]
            while stack:
                v = stack.pop()
                if removed[v] or degree[v] >= k:
                    continue
                removed[v] = True
                coreness[v] = k - 1
                alive_count -= 1
                for u in graph.neighbors(v).tolist():
                    ops += 1.0
                    if removed[u]:
                        continue
                    if block_of[u] == b:
                        degree[u] -= 1
                        if degree[u] < k:
                            stack.append(u)
                    else:
                        remote_decrements.setdefault(int(block_of[u]), []).append(u)
                        engine.send(b, int(block_of[u]), 8.0)
            engine.charge(b, max(1.0, ops))
        engine.end_round()
        pending = {}
        for b, targets in remote_decrements.items():
            for u in targets:
                if removed[u]:
                    continue
                degree[u] -= 1
                if degree[u] < k:
                    pending.setdefault(b, []).append(u)
    return coreness


def tc_blocks(engine: BlockCentricEngine) -> int:
    """TC: each block counts the triangles rooted at its vertices,
    pulling remote forward-adjacency lists once each (cached per
    block)."""
    v, _, _ = _census_round(engine, triangle_census)
    return int(v.size)


def kc_blocks(engine: BlockCentricEngine, *, k: int = 4) -> int:
    """KC: the expansion tree of each root runs entirely inside the
    root's block; remote adjacency is pulled once per (block, vertex)."""
    if k < 3:
        raise GraphStructureError(f"k must be >= 3 for KC, got {k}")
    return _census_round(engine, partial(clique_expansion_census, k=k))

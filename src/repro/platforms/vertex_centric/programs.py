"""Vertex-centric implementations of the eight core algorithms.

Each program produces outputs identical to its reference kernel in
:mod:`repro.algorithms.reference` (tests enforce this), while its message
and compute pattern reproduces the behaviour the paper discusses:
iterative programs message every edge every superstep, sequential
programs synchronize many times (diameter sensitivity), and subgraph
programs ship adjacency lists (communication explosion).

Platform feature flags alter the *implementation*, as on the real
platforms: global-messaging platforms use pointer-jumping WCC
(Shiloach–Vishkin-style round compression), vertex-subset platforms wake
only affected vertices in CD, and GraphX's LPA pays the hash-merge
penalty the paper describes.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.graph import Graph
from repro.errors import GraphStructureError
from repro.platforms.kernels import (
    CliqueLevel,
    clique_expansion_levels,
    closed_wedge_corners,
    forward_edge_arrays,
    segmented_mode,
)
from repro.platforms.vertex_centric.engine import (
    BulkInbox,
    BulkVertexContext,
    BulkVertexProgram,
    VertexContext,
    VertexProgram,
    sequential_sum,
)

__all__ = [
    "PageRankProgram",
    "LabelPropagationProgram",
    "SSSPProgram",
    "WCCHashMinProgram",
    "WCCPointerJumpProgram",
    "BCForwardProgram",
    "BCBackwardProgram",
    "CoreDecompositionProgram",
    "TriangleCountProgram",
    "KCliqueProgram",
]


class PageRankProgram(BulkVertexProgram):
    """Damped PageRank, fixed iteration count (benchmark setting: 10).

    Superstep 0 initializes and pushes contributions; supersteps
    ``1..iterations`` apply the update rule.  Dangling mass is
    redistributed through a global aggregator, matching the reference
    kernel bit-for-bit (up to float summation order).
    """

    combine = staticmethod(lambda a, b: a + b)
    bulk_combine = "sum"

    def __init__(self, *, damping: float = 0.85, iterations: int = 10) -> None:
        self.damping = damping
        self.iterations = iterations
        self.ranks: np.ndarray | None = None
        self._degrees: np.ndarray | None = None

    def setup(self, graph: Graph) -> None:
        n = graph.num_vertices
        self.ranks = np.full(n, 1.0 / n if n else 0.0)
        self._degrees = graph.out_degrees()

    def compute(self, v: int, messages, ctx: VertexContext) -> None:
        n = ctx.graph.num_vertices
        if ctx.superstep > 0:
            total = 0.0
            for m in messages:
                total += m
            dangling = ctx.get_aggregate("dangling")
            self.ranks[v] = (
                (1.0 - self.damping) / n
                + self.damping * total
                + self.damping * dangling / n
            )
        if ctx.superstep < self.iterations:
            degree = int(self._degrees[v])
            if degree > 0:
                ctx.send_to_neighbors(v, self.ranks[v] / degree)
            else:
                ctx.aggregate("dangling", self.ranks[v])
            ctx.activate(v)

    def compute_bulk(
        self, frontier: np.ndarray, inbox: BulkInbox, ctx: BulkVertexContext
    ) -> None:
        n = ctx.graph.num_vertices
        if ctx.superstep > 0:
            total = inbox.sum_per_vertex()[frontier]
            dangling = ctx.get_aggregate("dangling")
            self.ranks[frontier] = (
                (1.0 - self.damping) / n
                + self.damping * total
                + self.damping * dangling / n
            )
        if ctx.superstep < self.iterations:
            degrees = self._degrees[frontier]
            senders = frontier[degrees > 0]
            if senders.size:
                ctx.send_to_neighbors_bulk(
                    senders, self.ranks[senders] / self._degrees[senders]
                )
            dangling_v = frontier[degrees == 0]
            if dangling_v.size:
                ctx.aggregate(
                    "dangling", sequential_sum(self.ranks[dangling_v])
                )
            ctx.activate_bulk(frontier)


class LabelPropagationProgram(BulkVertexProgram):
    """Synchronous LPA with min-label tie-breaking (10 rounds).

    ``hash_merge_factor`` models the per-message hash-table merging cost;
    GraphX pays a large factor because merging tables from different
    vertices is done in the RDD reduce (Section 8.2), while platforms
    that merge into a local table pay ~1.
    """

    def __init__(self, *, iterations: int = 10, hash_merge_factor: float = 1.0) -> None:
        self.iterations = iterations
        self.hash_merge_factor = hash_merge_factor
        self.labels: np.ndarray | None = None

    def setup(self, graph: Graph) -> None:
        self.labels = np.arange(graph.num_vertices, dtype=np.int64)

    def compute(self, v: int, messages, ctx: VertexContext) -> None:
        if ctx.superstep > 0 and messages:
            ctx.charge(v, self.hash_merge_factor * len(messages))
            values, counts = np.unique(
                np.asarray(messages, dtype=np.int64), return_counts=True
            )
            best = int(values[counts == counts.max()].min())
            if best != self.labels[v]:
                self.labels[v] = best
                ctx.aggregate("changed", 1.0)
        if ctx.superstep < self.iterations:
            if ctx.superstep >= 2 and ctx.get_aggregate("changed") == 0.0:
                return  # converged: the paper's early-exit
            if ctx.graph.degree(v) > 0:
                ctx.send_to_neighbors(v, int(self.labels[v]))
            ctx.activate(v)

    def compute_bulk(
        self, frontier: np.ndarray, inbox: BulkInbox, ctx: BulkVertexContext
    ) -> None:
        if ctx.superstep > 0 and not inbox.empty:
            recv = inbox.destinations()
            counts = inbox.count_per_vertex()
            ctx.charge_bulk(
                recv, self.hash_merge_factor * counts[recv].astype(np.float64)
            )
            best = segmented_mode(*inbox.raw(), self.labels)
            changed = recv[best[recv] != self.labels[recv]]
            if changed.size:
                self.labels[changed] = best[changed]
                ctx.aggregate("changed", float(changed.size))
        if ctx.superstep < self.iterations:
            if ctx.superstep >= 2 and ctx.get_aggregate("changed") == 0.0:
                return  # converged: the paper's early-exit
            indptr = ctx.graph.indptr
            degrees = indptr[frontier + 1] - indptr[frontier]
            senders = frontier[degrees > 0]
            if senders.size:
                ctx.send_to_neighbors_bulk(senders, self.labels[senders])
            ctx.activate_bulk(frontier)


class SSSPProgram(BulkVertexProgram):
    """Bellman–Ford-style SSSP: relax on message, propagate improvements.

    Supersteps grow with the shortest-path hop depth — the diameter
    sensitivity of sequential algorithms (Section 8.2).  Unweighted
    graphs use unit edge weights.
    """

    combine = staticmethod(min)
    bulk_combine = "min"

    def __init__(self, source: int = 0) -> None:
        self.source = source
        self.dist: np.ndarray | None = None

    def setup(self, graph: Graph) -> None:
        n = graph.num_vertices
        if not 0 <= self.source < n:
            raise GraphStructureError(f"source {self.source} out of range")
        self.dist = np.full(n, np.inf)

    def initial_frontier(self, graph: Graph):
        return [self.source]

    def compute(self, v: int, messages, ctx: VertexContext) -> None:
        best = self.dist[v]
        if ctx.superstep == 0 and v == self.source:
            best = 0.0
        for m in messages:
            if m < best:
                best = m
        if best < self.dist[v] or (ctx.superstep == 0 and v == self.source):
            self.dist[v] = best
            graph = ctx.graph
            if graph.is_weighted:
                neigh = graph.neighbors(v)
                weights = graph.neighbor_weights(v)
                for u, w in zip(neigh.tolist(), weights.tolist()):
                    ctx.send(v, u, best + w)
            else:
                ctx.send_to_neighbors(v, best + 1.0)

    def compute_bulk(
        self, frontier: np.ndarray, inbox: BulkInbox, ctx: BulkVertexContext
    ) -> None:
        best = self.dist[frontier].copy()
        is_source = None
        if ctx.superstep == 0:
            is_source = frontier == self.source
            best[is_source] = 0.0
        if not inbox.empty:
            best = np.minimum(
                best, inbox.min_per_vertex().astype(np.float64)[frontier]
            )
        improved = best < self.dist[frontier]
        if is_source is not None:
            improved |= is_source
        relaxed = frontier[improved]
        if relaxed.size == 0:
            return
        newd = best[improved]
        self.dist[relaxed] = newd
        graph = ctx.graph
        if graph.is_weighted:
            src_flat, dst_flat, slot = ctx.expand_frontier(relaxed)
            counts = graph.indptr[relaxed + 1] - graph.indptr[relaxed]
            values = np.repeat(newd, counts) + graph.weights[slot]
            ctx.send_edges_bulk(src_flat, dst_flat, values)
        else:
            ctx.send_to_neighbors_bulk(relaxed, newd + 1.0)


class WCCHashMinProgram(BulkVertexProgram):
    """HashMin connected components: flood the minimum vertex id.

    Supersteps are proportional to the component diameter — the baseline
    WCC on platforms without global messaging (GraphX, edge-centric).
    """

    combine = staticmethod(min)
    bulk_combine = "min"

    def __init__(self) -> None:
        self.labels: np.ndarray | None = None

    def setup(self, graph: Graph) -> None:
        self.labels = np.arange(graph.num_vertices, dtype=np.int64)

    def compute(self, v: int, messages, ctx: VertexContext) -> None:
        best = int(self.labels[v])
        for m in messages:
            if m < best:
                best = m
        if best < self.labels[v] or ctx.superstep == 0:
            self.labels[v] = best
            ctx.send_to_neighbors(v, best)

    def compute_bulk(
        self, frontier: np.ndarray, inbox: BulkInbox, ctx: BulkVertexContext
    ) -> None:
        best = self.labels[frontier].copy()
        if not inbox.empty:
            best = np.minimum(best, inbox.min_per_vertex()[frontier])
        if ctx.superstep == 0:
            senders = frontier
        else:
            lowered = best < self.labels[frontier]
            senders = frontier[lowered]
            best = best[lowered]
        if senders.size:
            self.labels[senders] = best
            ctx.send_to_neighbors_bulk(senders, best)


class WCCPointerJumpProgram(VertexProgram):
    """HashMin accelerated by pointer jumping (Shiloach–Vishkin style).

    Platforms with global messaging (Flash, Pregel+) let a vertex query
    its current label's own label ("request–respond"), halving pointer
    chains every round; supersteps drop from O(diameter) to O(log n)
    (Section 8.2: HashMin / Shiloach-Vishkin "reduce iteration rounds
    significantly").

    Message protocol: ``('L', label)`` neighbour propagation,
    ``('Q', requester)`` shortcut request, ``('A', label)`` shortcut
    reply.
    """

    def __init__(self) -> None:
        self.labels: np.ndarray | None = None

    def setup(self, graph: Graph) -> None:
        self.labels = np.arange(graph.num_vertices, dtype=np.int64)

    def compute(self, v: int, messages, ctx: VertexContext) -> None:
        best = int(self.labels[v])
        requesters: list[int] = []
        for kind, payload in messages:
            if kind == "Q":
                requesters.append(payload)
            elif payload < best:  # 'L' or 'A'
                best = payload
        changed = best < self.labels[v]
        if changed:
            self.labels[v] = best
        for r in requesters:
            ctx.send(v, r, ("A", int(self.labels[v])), nbytes=12.0)
        if changed or ctx.superstep == 0:
            label = int(self.labels[v])
            ctx.send_to_neighbors(v, ("L", label), nbytes=12.0)
            if label != v:
                ctx.send(v, label, ("Q", v), nbytes=12.0)


class BCForwardProgram(VertexProgram):
    """Forward phase of Brandes BC: BFS wave computing shortest-path
    counts (sigma) and predecessor lists.

    Messages carry ``(sender, sigma_sender)``; a vertex accumulates only
    messages arriving on its discovery superstep (senders one level up).
    """

    def __init__(self, source: int = 0) -> None:
        self.source = source
        self.depth: np.ndarray | None = None
        self.sigma: np.ndarray | None = None
        self.preds: list[list[int]] | None = None

    def setup(self, graph: Graph) -> None:
        n = graph.num_vertices
        if not 0 <= self.source < n:
            raise GraphStructureError(f"source {self.source} out of range")
        self.depth = np.full(n, -1, dtype=np.int64)
        self.sigma = np.zeros(n, dtype=np.float64)
        self.preds = [[] for _ in range(n)]

    def initial_frontier(self, graph: Graph):
        return [self.source]

    def compute(self, v: int, messages, ctx: VertexContext) -> None:
        if ctx.superstep == 0 and v == self.source:
            self.depth[v] = 0
            self.sigma[v] = 1.0
            ctx.send_to_neighbors(v, (v, 1.0), nbytes=16.0)
            return
        if self.depth[v] >= 0:
            return  # already discovered; late same-level messages ignored
        self.depth[v] = ctx.superstep
        total = 0.0
        for sender, sigma in messages:
            self.preds[v].append(sender)
            total += sigma
        self.sigma[v] = total
        ctx.send_to_neighbors(v, (v, total), nbytes=16.0)


class BCBackwardProgram(VertexProgram):
    """Backward phase of Brandes BC: dependency accumulation.

    Runs on a scripted schedule — one superstep per BFS level, deepest
    first — so each vertex fires exactly when all its successors' delta
    contributions have arrived.
    """

    def __init__(self, forward: BCForwardProgram) -> None:
        self.forward = forward
        self.delta: np.ndarray | None = None
        self.frontiers: list[np.ndarray] = []

    def setup(self, graph: Graph) -> None:
        depth = self.forward.depth
        self.delta = np.zeros(graph.num_vertices, dtype=np.float64)
        max_depth = int(depth.max()) if depth.size else -1
        self.frontiers = [
            np.nonzero(depth == d)[0] for d in range(max_depth, 0, -1)
        ]

    def compute(self, v: int, messages, ctx: VertexContext) -> None:
        total = 0.0
        for m in messages:
            total += m
        self.delta[v] += total
        sigma_v = self.forward.sigma[v]
        for p in self.forward.preds[v]:
            contribution = self.forward.sigma[p] / sigma_v * (1.0 + self.delta[v])
            ctx.send(v, p, contribution)


class CoreDecompositionProgram(BulkVertexProgram):
    """Coreness via distributed peeling at increasing k.

    A master hook (Pregel ``master.compute``) bumps k when a peeling wave
    quiesces.  ``use_subset`` mirrors the paper's observation: platforms
    with vertex subsets (Flash, Ligra) wake only candidates, while others
    re-activate every alive vertex each superstep.

    The bulk path (``bulk_master_hook`` opts the hook in on both paths)
    peels each wave as array ops: decrement by the inbox's per-vertex
    counts, compare against k, and ship one decrement along every edge
    of the newly removed set.  Within a superstep each vertex's decision
    reads only its own state and last superstep's messages, so the
    scalar path's ascending-vertex order carries no information and the
    two paths meter bit-identically.
    """

    bulk_master_hook = True

    def __init__(self, *, use_subset: bool) -> None:
        self.use_subset = use_subset
        self.k = 1
        self.coreness: np.ndarray | None = None
        self.degree: np.ndarray | None = None
        self.removed: np.ndarray | None = None
        self._removed_this_wave = 0

    def setup(self, graph: Graph) -> None:
        n = graph.num_vertices
        self.coreness = np.zeros(n, dtype=np.int64)
        self.degree = graph.out_degrees().astype(np.int64).copy()
        self.removed = np.zeros(n, dtype=bool)

    def initial_frontier(self, graph: Graph):
        return []  # scheduling is fully master-driven

    def before_superstep(self, superstep: int, ctx: VertexContext):
        """Master hook: bump k when a peeling wave quiesces and
        schedule the next wave's candidates."""
        alive = ~self.removed
        if not alive.any():
            return None  # done: nothing scheduled, engine quiesces
        if superstep > 0 and self._removed_this_wave > 0:
            self._removed_this_wave = 0
            # Wave still running; removals' decrement messages schedule
            # the affected vertices, plus non-subset platforms rescan all.
            return None if self.use_subset else np.nonzero(alive)[0]
        self._removed_this_wave = 0
        # Wave quiesced: raise k until some vertex falls below it.
        while True:
            candidates = np.nonzero(alive & (self.degree < self.k))[0]
            if candidates.size:
                break
            self.k += 1
        return candidates if self.use_subset else np.nonzero(alive)[0]

    def compute(self, v: int, messages, ctx: VertexContext) -> None:
        if self.removed[v]:
            return
        if messages:
            self.degree[v] -= len(messages)
        if self.degree[v] < self.k:
            self.removed[v] = True
            self.coreness[v] = self.k - 1
            self._removed_this_wave += 1
            ctx.aggregate("removed", 1.0)
            ctx.send_to_neighbors(v, 1)

    def compute_bulk(
        self, frontier: np.ndarray, inbox: BulkInbox, ctx: BulkVertexContext
    ) -> None:
        counts = inbox.count_per_vertex()
        alive = frontier[~self.removed[frontier]]
        self.degree[alive] -= counts[alive]
        newly = alive[self.degree[alive] < self.k]
        if newly.size == 0:
            return
        self.removed[newly] = True
        self.coreness[newly] = self.k - 1
        self._removed_this_wave += int(newly.size)
        # One 1.0 per removal, like the scalar loop (integer-valued, so
        # the single folded contribution sums identically).
        ctx.aggregate("removed", float(newly.size))
        ctx.send_to_neighbors_bulk(newly, np.ones(newly.size, dtype=np.int64))


class TriangleCountProgram(BulkVertexProgram):
    """Vertex-centric TC: ship forward adjacency lists, intersect.

    Superstep 0 sends each vertex's forward neighbour list to each of its
    forward neighbours (the communication blow-up the paper attributes to
    subgraph algorithms on vertex-centric platforms), one message per
    forward edge ``(v, u)`` holding the edge's index; superstep 1
    intersects, ``fdeg(v) + fdeg(u)`` ops at ``u``.
    """

    #: payload entries shipped beside each forward list
    header_entries = 0

    def __init__(self) -> None:
        self.total = 0
        self._forward: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def setup(self, graph: Graph) -> None:
        self.total = 0
        self._forward = forward_edge_arrays(graph)

    def compute_bulk(
        self, frontier: np.ndarray, inbox: BulkInbox, ctx: BulkVertexContext
    ) -> None:
        if ctx.superstep > 0:
            self.total = int(self._intersect(inbox, ctx)[0].size)
            return
        findptr, fsrc, fdst = self._forward
        ctx.charge_bulk(frontier, ctx.graph.out_degrees()[frontier])
        ctx.send_edges_bulk(
            fsrc, fdst, np.arange(fsrc.size),
            nbytes=8.0 * (self.header_entries + np.diff(findptr)[fsrc]),
        )

    def _intersect(self, inbox: BulkInbox, ctx: BulkVertexContext) -> tuple:
        """Charge every delivered list's intersection at its receiver;
        returns the closed forward wedges ``(v, u, w)``."""
        findptr, fsrc, fdst = self._forward
        fdeg = np.diff(findptr)
        _, edges = inbox.raw()
        ctx.charge_bulk(fdst[edges], fdeg[fsrc[edges]] + fdeg[fdst[edges]])
        return closed_wedge_corners(findptr, fsrc, fdst, ctx.graph.num_vertices)


class KCliqueProgram(BulkVertexProgram):
    """Vertex-centric k-clique counting by partial-clique expansion.

    Superstep ``L`` receives level ``L`` of
    :func:`~repro.platforms.kernels.clique_expansion_levels` (one
    message per expansion, holding its index, from the task's vertex to
    the candidate) and sends level ``L + 1``, so message volume is
    proportional to the number of partial cliques — the cost the paper
    calls "inadequate" for vertex-centric platforms.
    """

    def __init__(self, k: int = 4) -> None:
        if k < 3:
            raise GraphStructureError(f"k must be >= 3 for KC, got {k}")
        self.k = k
        self.total = 0
        self._levels: Iterator[CliqueLevel] | None = None
        self._level: CliqueLevel | None = None

    def setup(self, graph: Graph) -> None:
        self.total = 0
        self._levels = clique_expansion_levels(
            *forward_edge_arrays(graph), graph.num_vertices, self.k
        )
        self._level = None

    def compute_bulk(
        self, frontier: np.ndarray, inbox: BulkInbox, ctx: BulkVertexContext
    ) -> None:
        if ctx.superstep == 0:
            ctx.charge_bulk(frontier, ctx.graph.out_degrees()[frontier])
        else:
            _, tasks = inbox.raw()
            level = self._level
            u = level.cand[tasks]
            fdeg = np.diff(forward_edge_arrays(ctx.graph)[0])
            ctx.charge_bulk(u, level.size[tasks] + fdeg[u])
            if ctx.superstep == self.k - 2:
                self.total = int(level.narrowed[tasks].sum())
                return
        self._level = level = next(self._levels, None)
        if level is not None:
            ctx.send_edges_bulk(
                level.vertex, level.cand, np.arange(level.cand.size),
                nbytes=8.0 * (1 + level.size),
            )

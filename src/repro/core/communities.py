"""Community extraction and per-community statistics.

Reproduces the generator-similarity methodology of Section 8.1, which
follows Prat-Pérez & Dominguez-Sal ("How community-like is the structure
of synthetically generated graphs?"): detect communities, then compare the
*distributions* of six per-community statistics between a real graph and a
synthetic one:

* clustering coefficient (CC)
* triangle participation ratio (TPR)
* bridge ratio (BR)
* diameter (Diam)
* conductance (Cond)
* size (Size)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.graph import Graph
from repro.core.stats import exact_diameter, local_clustering

__all__ = [
    "CommunityStatistics",
    "COMMUNITY_STATISTIC_NAMES",
    "detect_communities",
    "community_statistics",
    "statistic_distributions",
]

COMMUNITY_STATISTIC_NAMES = ("cc", "tpr", "bridge_ratio", "diameter",
                             "conductance", "size")


@dataclass(frozen=True)
class CommunityStatistics:
    """The six Table-8 statistics for one community."""

    cc: float
    tpr: float
    bridge_ratio: float
    diameter: float
    conductance: float
    size: int

    def as_dict(self) -> dict[str, float]:
        """Statistics keyed by their Table-8 column names."""
        return {
            "cc": self.cc,
            "tpr": self.tpr,
            "bridge_ratio": self.bridge_ratio,
            "diameter": float(self.diameter),
            "conductance": self.conductance,
            "size": float(self.size),
        }


def detect_communities(
    graph: Graph, *, max_rounds: int = 20, seed: int = 0
) -> list[np.ndarray]:
    """Partition the graph into communities with asynchronous min-label LPA.

    Vertices repeatedly adopt the most frequent label among their
    neighbours (ties broken by the smallest label), visited in one
    ``seed``-drawn order and updated in place, so a vertex already sees
    the labels its predecessors adopted this round.  Unlike synchronous
    LPA this cannot oscillate between two states.  Isolated vertices form
    singleton communities.  Returns communities sorted by decreasing size.
    """
    und = graph.to_undirected()
    n = und.num_vertices
    labels = np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    for _ in range(max_rounds):
        changed = 0
        for v in order:
            neigh = und.neighbors(int(v))
            if neigh.size == 0:
                continue
            neighbor_labels = labels[neigh]
            values, counts = np.unique(neighbor_labels, return_counts=True)
            best = values[counts == counts.max()].min()
            if best != labels[v]:
                labels[v] = best
                changed += 1
        if changed == 0:
            break
    return _groups_from_labels(labels)


def community_statistics(
    graph: Graph, community: np.ndarray
) -> CommunityStatistics:
    """Compute the six per-community statistics for one vertex set."""
    und = graph.to_undirected()
    members = np.asarray(community, dtype=np.int64)
    sub = und.subgraph(members)
    size = int(members.size)

    cc = float(local_clustering(sub).mean()) if size else 0.0
    tpr = _triangle_participation(sub)
    bridge_ratio = _bridge_ratio(sub)
    diameter = float(exact_diameter(sub))
    conductance = _conductance(und, members)
    return CommunityStatistics(
        cc=cc,
        tpr=tpr,
        bridge_ratio=bridge_ratio,
        diameter=diameter,
        conductance=conductance,
        size=size,
    )


def statistic_distributions(
    graph: Graph,
    communities: list[np.ndarray] | None = None,
    *,
    min_size: int = 3,
    max_communities: int = 200,
    seed: int = 0,
) -> dict[str, np.ndarray]:
    """Per-statistic value arrays across communities.

    Communities smaller than ``min_size`` carry no triangle/diameter signal
    and are skipped, matching the evaluation methodology.  At most
    ``max_communities`` are analysed (largest first) to bound cost.
    """
    if communities is None:
        communities = detect_communities(graph, seed=seed)
    eligible = [c for c in communities if c.size >= min_size][:max_communities]
    columns: dict[str, list[float]] = {name: [] for name in COMMUNITY_STATISTIC_NAMES}
    for community in eligible:
        stats = community_statistics(graph, community)
        for name, value in stats.as_dict().items():
            columns[name].append(value)
    return {name: np.asarray(values, dtype=np.float64)
            for name, values in columns.items()}


# ----------------------------------------------------------------------
# Statistic helpers
# ----------------------------------------------------------------------


def _groups_from_labels(labels: np.ndarray) -> list[np.ndarray]:
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    boundaries = np.nonzero(np.diff(sorted_labels))[0] + 1
    groups = np.split(order, boundaries)
    groups.sort(key=lambda g: -g.size)
    return [np.sort(g).astype(np.int64) for g in groups]


def _triangle_participation(sub: Graph) -> float:
    """Fraction of community vertices that close at least one triangle."""
    n = sub.num_vertices
    if n == 0:
        return 0.0
    adjacency = [set(sub.neighbors(v).tolist()) for v in range(n)]
    in_triangle = np.zeros(n, dtype=bool)
    for v in range(n):
        if in_triangle[v]:
            continue
        neigh = sub.neighbors(v).tolist()
        found = False
        for i, u in enumerate(neigh):
            for w in neigh[i + 1:]:
                if w in adjacency[u]:
                    in_triangle[v] = in_triangle[u] = in_triangle[w] = True
                    found = True
                    break
            if found:
                break
    return float(in_triangle.mean())


def _bridge_ratio(sub: Graph) -> float:
    """Fraction of the community's internal edges that are bridges.

    Uses the iterative Tarjan bridge-finding DFS (low-link values).
    """
    n = sub.num_vertices
    m = sub.num_edges
    if m == 0:
        return 0.0
    disc = np.full(n, -1, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    bridges = 0
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        # Iterative DFS: stack of (vertex, parent, neighbour cursor).
        stack: list[list[int]] = [[root, -1, 0, 0]]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, parent, cursor, skipped_parent = stack[-1]
            neigh = sub.neighbors(v)
            if cursor < neigh.shape[0]:
                stack[-1][2] += 1
                u = int(neigh[cursor])
                if u == parent and not skipped_parent:
                    # Skip one parent slot (parallel edges would be extra).
                    stack[-1][3] = 1
                    continue
                if disc[u] == -1:
                    disc[u] = low[u] = timer
                    timer += 1
                    stack.append([u, v, 0, 0])
                else:
                    low[v] = min(low[v], disc[u])
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] > disc[p]:
                        bridges += 1
    return bridges / m


def _conductance(graph: Graph, members: np.ndarray) -> float:
    """Cut edges over the smaller side's volume; 0 for whole-graph sets."""
    inside = np.zeros(graph.num_vertices, dtype=bool)
    inside[members] = True
    degrees = graph.out_degrees()
    volume_s = int(degrees[members].sum())
    volume_rest = int(degrees.sum()) - volume_s
    if volume_s == 0 or volume_rest == 0:
        return 0.0
    cut = 0
    for v in members:
        neigh = graph.neighbors(int(v))
        cut += int((~inside[neigh]).sum())
    return cut / min(volume_s, volume_rest)

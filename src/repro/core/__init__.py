"""Graph core: CSR container, builders, I/O, statistics, communities,
distribution distances, and partitioners.

The :class:`~repro.core.graph.Graph` class is the library-wide graph
representation; everything else in the package analyses or constructs it.
"""

from repro.core.graph import EdgeList, Graph
from repro.core.delta import DeltaCSR, empty_csr_graph
from repro.core.builder import (
    complete_graph,
    cycle_graph,
    empty_graph,
    grid_graph,
    path_graph,
    random_graph,
    star_graph,
)
from repro.core.io import load_binary, read_edge_list, save_binary, write_edge_list
from repro.core.stats import (
    GraphSummary,
    approximate_diameter,
    average_clustering,
    degree_histogram,
    effective_diameter,
    exact_diameter,
    global_clustering,
    local_clustering,
    power_law_exponent,
    summarize,
    triangle_count,
)
from repro.core.communities import (
    COMMUNITY_STATISTIC_NAMES,
    CommunityStatistics,
    community_statistics,
    detect_communities,
    statistic_distributions,
)
from repro.core.distance import (
    distribution_divergence,
    histogram_distribution,
    jensen_shannon_divergence,
    relative_difference,
    spearman_rho,
)
from repro.core.partition import (
    Partition,
    block_partition,
    edge_cut,
    hash_partition,
    load_imbalance,
    range_partition,
)
from repro.core.traversal import (
    bfs_levels,
    bfs_order,
    connected_components,
    eccentricity,
    largest_component,
)

__all__ = [
    "EdgeList",
    "Graph",
    "DeltaCSR",
    "empty_csr_graph",
    "GraphSummary",
    "CommunityStatistics",
    "COMMUNITY_STATISTIC_NAMES",
    "Partition",
    "empty_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "grid_graph",
    "random_graph",
    "read_edge_list",
    "write_edge_list",
    "save_binary",
    "load_binary",
    "summarize",
    "degree_histogram",
    "approximate_diameter",
    "exact_diameter",
    "effective_diameter",
    "local_clustering",
    "average_clustering",
    "global_clustering",
    "triangle_count",
    "power_law_exponent",
    "detect_communities",
    "community_statistics",
    "statistic_distributions",
    "histogram_distribution",
    "jensen_shannon_divergence",
    "distribution_divergence",
    "spearman_rho",
    "relative_difference",
    "hash_partition",
    "range_partition",
    "block_partition",
    "edge_cut",
    "load_imbalance",
    "bfs_levels",
    "bfs_order",
    "eccentricity",
    "connected_components",
    "largest_component",
]

"""Per-vertex task loops: the executable specification of the censuses.

Grape and G-thinker run TC, LCC and KC as one array census over the
forward CSR (:func:`~repro.platforms.kernels.triangle_census`,
:func:`~repro.platforms.kernels.clique_expansion_census`), and Grape's
BC meters its Brandes levels in bulk.  The loops here state the same
work one task at a time, the way a reader would write it.  Tests diff
the engines against them.

Each census-shaped loop roots the tasks of vertex ``v`` at ``owner[v]``
and returns its result plus ``(ops, pulls, remote_calls)``:

* ``ops`` — float64 ops per part;
* ``pulls`` — the set of remote ``(rooting part, vertex)`` adjacency
  requests, each shipped once;
* ``remote_calls`` — every remote request, repeats included.

:func:`clique_level_loop` is the per-task form of the vertex-centric
engine's and PowerGraph's KC, whose supersteps are the levels of
:func:`~repro.platforms.kernels.clique_expansion_levels`.
"""

import numpy as np

from repro.platforms.block_centric.algorithms import sssp_blocks
from repro.platforms.kernels import vertex_order_positions


def forward_adjacency(graph):
    """Sorted higher-position neighbour arrays, one per vertex: the
    per-vertex form of :func:`~repro.platforms.kernels.forward_edge_arrays`."""
    und = graph.to_undirected()
    position = vertex_order_positions(und)
    forward = []
    for v in range(und.num_vertices):
        neigh = und.neighbors(v)
        forward.append(np.sort(neigh[position[neigh] > position[v]]))
    return forward


def triangle_loop(graph, owner, parts):
    """One task per forward edge ``(v, u)``: ``fdeg(v) + fdeg(u)`` ops
    at ``owner[v]``, a pull of ``u``'s list, and one triangle
    ``(v, u, w)`` per common forward neighbour ``w``."""
    forward = forward_adjacency(graph)
    corners, pulls, calls = [], set(), 0
    ops = np.zeros(parts)
    for v in range(graph.num_vertices):
        p = int(owner[v])
        for u in forward[v].tolist():
            if owner[u] != p:
                calls += 1
                pulls.add((p, u))
            ops[p] += forward[v].size + forward[u].size
            common = np.intersect1d(forward[v], forward[u], assume_unique=True)
            corners += [(v, u, w) for w in common.tolist()]
    return sorted(corners), ops, pulls, calls


def corner_credits(corners, n):
    """Triangles through each vertex."""
    triangles = np.zeros(n, dtype=np.int64)
    for triangle in corners:
        triangles[list(triangle)] += 1
    return triangles


def clique_loop(graph, owner, parts, k):
    """Per-root depth-first k-clique expansion: spawning root ``v``
    costs ``max(1, fdeg(v))`` ops, expanding candidate ``u`` of a task
    with candidates ``C`` costs ``|C| + fdeg(u)`` and narrows ``C`` to
    ``C ∩ forward(u)``."""
    forward = forward_adjacency(graph)
    total, pulls, calls = 0, set(), 0
    ops = np.zeros(parts)
    for v in range(graph.num_vertices):
        p = int(owner[v])
        ops[p] += max(1, forward[v].size)
        stack = [(1, forward[v])]
        while stack:
            size, candidates = stack.pop()
            if size == k - 1:
                total += candidates.size
                continue
            for u in candidates.tolist():
                if owner[u] != p:
                    calls += 1
                    pulls.add((p, u))
                ops[p] += candidates.size + forward[u].size
                narrowed = np.intersect1d(candidates, forward[u],
                                          assume_unique=True)
                if narrowed.size >= k - size - 2:
                    stack.append((size + 1, narrowed))
    return total, ops, pulls, calls


def clique_level_loop(graph, k):
    """Per-root depth-first k-clique expansion, one row per expansion.

    Root ``v`` sends its forward list to each forward neighbour; a task
    ``(vertex, C)`` at level ``L`` receiving candidate ``u`` narrows
    ``C`` to ``C ∩ forward(u)`` and, below level ``k - 2``, passes the
    narrowed set on to each of its members when it can still complete
    a clique.  Returns, per level, the sorted
    ``(root, vertex, u, |C|, |C ∩ forward(u)|)`` rows, empty levels
    dropped from the end.
    """
    forward = forward_adjacency(graph)
    levels = [[] for _ in range(k - 2)]
    for root in range(graph.num_vertices):
        stack = [(1, root, root, forward[root])]
        while stack:
            level, root_v, vertex, candidates = stack.pop()
            for u in candidates.tolist():
                narrowed = np.intersect1d(candidates, forward[u],
                                          assume_unique=True)
                levels[level - 1].append(
                    (root_v, vertex, u, candidates.size, narrowed.size)
                )
                if level < k - 2 and narrowed.size >= k - level - 2:
                    stack.append((level + 1, root_v, u, narrowed))
    while levels and not levels[-1]:
        levels.pop()
    return [sorted(rows) for rows in levels]


def assert_one_wave(trace, graph, owner, ops, pulls):
    """``trace`` is one superstep charging ``ops`` and shipping each
    pulled forward list once, from its owner to the pulling part."""
    forward = forward_adjacency(graph)
    count = np.zeros((trace.parts, trace.parts))
    nbytes = np.zeros((trace.parts, trace.parts))
    for p, u in pulls:
        count[owner[u], p] += 1
        nbytes[owner[u], p] += 8.0 * forward[u].size
    (step,) = trace.steps
    assert np.array_equal(step.ops, ops)
    assert np.array_equal(step.msg_count, count)
    assert np.array_equal(step.msg_bytes, nbytes)


def assert_traces_identical(a, b):
    assert a.supersteps == b.supersteps
    for step_a, step_b in zip(a.steps, b.steps):
        assert np.array_equal(step_a.ops, step_b.ops)
        assert np.array_equal(step_a.msg_count, step_b.msg_count)
        assert np.array_equal(step_a.msg_bytes, step_b.msg_bytes)


def brandes_blocks_loop(engine, source):
    """Grape's single-source BC, one charge per block and one 16-byte
    send per cut DAG edge, driving ``engine`` directly."""
    graph = engine.graph
    n = graph.num_vertices
    block_of = engine.block_of
    depth_f = sssp_blocks(engine, source=source)
    depth = np.where(np.isinf(depth_f), -1, depth_f).astype(np.int64)
    max_depth = int(depth.max()) if n else -1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    dst = graph.indices
    dag = (depth[src] + 1 == depth[dst]) & (depth[src] >= 0)
    dag_src, dag_dst = src[dag], dst[dag]

    sigma = np.zeros(n)
    sigma[source] = 1.0
    for level in range(1, max_depth + 1):
        engine.begin_round()
        sel = depth[dag_dst] == level
        s, d = dag_src[sel], dag_dst[sel]
        np.add.at(sigma, d, sigma[s])
        for b in range(engine.parts):
            engine.charge(b, max(1.0, float((block_of[d] == b).sum())))
        for i, j in zip(block_of[s].tolist(), block_of[d].tolist()):
            if i != j:
                engine.send(i, j, 16.0)
        engine.end_round()

    delta = np.zeros(n)
    for level in range(max_depth, 0, -1):
        engine.begin_round()
        sel = depth[dag_dst] == level
        s, d = dag_src[sel], dag_dst[sel]
        np.add.at(delta, s, sigma[s] / sigma[d] * (1.0 + delta[d]))
        for b in range(engine.parts):
            engine.charge(b, max(1.0, float((block_of[s] == b).sum())))
        for i, j in zip(block_of[d].tolist(), block_of[s].tolist()):
            if i != j:
                engine.send(i, j, 16.0)
        engine.end_round()
    delta[source] = 0.0
    return delta

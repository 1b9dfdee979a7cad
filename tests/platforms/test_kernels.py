"""Unit tests for :mod:`repro.platforms.kernels` — the shared flat-CSR
primitives every bulk engine path is built from.

The dtype contracts matter as much as the values: ``expand_segments``
historically promoted to a platform-dependent dtype on empty inputs
(implicit int64 promotion of ``np.repeat`` on empty operands), which
made downstream index arithmetic differ between the empty and non-empty
branches.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    Graph,
    complete_graph,
    path_graph,
    random_graph,
    star_graph,
)
from repro.platforms.kernels import (
    ChunkedDrawBuffer,
    broadcast_pair_counts,
    clique_expansion_levels,
    closed_wedge_corners,
    clustering_coefficients,
    expand_segments,
    forward_edge_arrays,
    lexsorted_csr,
    message_matrices,
    out_part_histogram,
    segmented_mode,
    self_loop_counts,
    simple_degrees,
    triangle_census,
    unique_pull_pairs,
    vertex_order_positions,
)
from repro.cluster import TraceRecorder
from task_loops import clique_level_loop, forward_adjacency, triangle_loop

RANDOM = random_graph(120, 500, seed=7)


class TestExpandSegments:
    INDPTR = np.array([0, 3, 3, 5, 9], dtype=np.int64)

    def test_basic_expansion(self):
        slots, owner_pos, counts = expand_segments(
            self.INDPTR, np.array([0, 2, 3])
        )
        assert np.array_equal(slots, [0, 1, 2, 3, 4, 5, 6, 7, 8])
        assert np.array_equal(owner_pos, [0, 0, 0, 1, 1, 2, 2, 2, 2])
        assert np.array_equal(counts, [3, 2, 4])

    def test_repeated_ids_expand_repeatedly(self):
        slots, owner_pos, counts = expand_segments(
            self.INDPTR, np.array([2, 2])
        )
        assert np.array_equal(slots, [3, 4, 3, 4])
        assert np.array_equal(owner_pos, [0, 0, 1, 1])
        assert np.array_equal(counts, [2, 2])

    def test_empty_ids(self):
        slots, owner_pos, counts = expand_segments(self.INDPTR, np.array([]))
        for arr in (slots, owner_pos, counts):
            assert arr.size == 0
            assert arr.dtype == np.int64

    def test_all_empty_segments(self):
        slots, owner_pos, counts = expand_segments(
            self.INDPTR, np.array([1, 1])
        )
        assert slots.size == 0 and owner_pos.size == 0
        assert np.array_equal(counts, [0, 0])
        for arr in (slots, owner_pos, counts):
            assert arr.dtype == np.int64

    def test_single_segment(self):
        slots, owner_pos, counts = expand_segments(self.INDPTR, np.array([3]))
        assert np.array_equal(slots, [5, 6, 7, 8])
        assert np.array_equal(owner_pos, [0, 0, 0, 0])
        assert np.array_equal(counts, [4])

    def test_mixed_empty_segments(self):
        slots, owner_pos, counts = expand_segments(
            self.INDPTR, np.array([1, 0, 1, 2])
        )
        assert np.array_equal(slots, [0, 1, 2, 3, 4])
        assert np.array_equal(owner_pos, [1, 1, 1, 3, 3])
        assert np.array_equal(counts, [0, 3, 0, 2])

    @pytest.mark.parametrize("ids", [[], [1], [1, 1], [0, 1, 2]])
    def test_dtype_stable_across_branches(self, ids):
        """int64 outputs regardless of input dtypes or emptiness."""
        indptr32 = self.INDPTR.astype(np.int32)
        slots, owner_pos, counts = expand_segments(
            indptr32, np.array(ids, dtype=np.int32)
        )
        assert slots.dtype == np.int64
        assert owner_pos.dtype == np.int64
        assert counts.dtype == np.int64

    def test_returned_empties_are_fresh(self):
        """The empty branch must not alias a shared module constant."""
        a, _, _ = expand_segments(self.INDPTR, np.array([]))
        b, _, _ = expand_segments(self.INDPTR, np.array([]))
        assert a is not b

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_matches_per_vertex_slicing(self, data):
        degrees = data.draw(st.lists(st.integers(0, 6), min_size=1,
                                     max_size=20))
        indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
        ids = np.array(
            data.draw(st.lists(st.integers(0, len(degrees) - 1),
                               max_size=30)),
            dtype=np.int64,
        )
        slots, owner_pos, counts = expand_segments(indptr, ids)
        want = [np.arange(indptr[v], indptr[v + 1]) for v in ids]
        assert np.array_equal(
            slots, np.concatenate(want) if want else np.empty(0)
        )
        assert np.array_equal(
            owner_pos,
            np.concatenate([np.full(w.size, i) for i, w in enumerate(want)])
            if want else np.empty(0),
        )
        assert np.array_equal(counts, [w.size for w in want])


@st.composite
def broadcast_inputs(draw):
    """A random CSR (zero-degree vertices, repeated neighbours and
    self-slots allowed), a partition of it, and senders with repeats."""
    n = draw(st.integers(1, 15))
    parts = draw(st.integers(1, 5))
    degrees = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    slots = int(sum(degrees))
    indices = draw(st.lists(st.integers(0, n - 1), min_size=slots,
                            max_size=slots))
    owner = draw(st.lists(st.integers(0, parts - 1), min_size=n,
                          max_size=n))
    senders = draw(st.lists(st.integers(0, n - 1), max_size=25))
    return (
        np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64),
        np.array(indices, dtype=np.int64),
        np.array(owner, dtype=np.int64),
        parts,
        np.array(senders, dtype=np.int64),
    )


class TestBroadcastPairCounts:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(broadcast_inputs())
    def test_histogram_equals_per_edge_metering(self, case):
        indptr, indices, owner, parts, senders = case
        hist = out_part_histogram(indptr, indices, owner, parts)
        assert hist.dtype == np.int64
        assert np.array_equal(hist.sum(axis=1), np.diff(indptr))
        got = broadcast_pair_counts(hist, owner, senders, parts)
        slots, owner_pos, _ = expand_segments(indptr, senders)
        want = np.bincount(
            owner[senders[owner_pos]] * parts + owner[indices[slots]],
            minlength=parts * parts,
        ).reshape(parts, parts)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


class TestLexsortedCSR:
    def test_sorts_and_packs(self):
        src = np.array([2, 0, 2, 0, 1])
        dst = np.array([1, 5, 0, 2, 3])
        indptr, s, d = lexsorted_csr(src, dst, 4)
        assert np.array_equal(indptr, [0, 2, 3, 5, 5])
        assert np.array_equal(s, [0, 0, 1, 2, 2])
        assert np.array_equal(d, [2, 5, 3, 0, 1])

    def test_aligned_arrays_follow_permutation(self):
        src = np.array([1, 0, 1])
        dst = np.array([2, 1, 0])
        eid = np.array([10, 20, 30])
        w = np.array([0.1, 0.2, 0.3])
        indptr, s, d, eid_s, w_s, none = lexsorted_csr(
            src, dst, 3, eid, w, None
        )
        assert np.array_equal(eid_s, [20, 30, 10])
        assert np.allclose(w_s, [0.2, 0.3, 0.1])
        assert none is None

    def test_empty(self):
        indptr, s, d = lexsorted_csr(np.array([]), np.array([]), 3)
        assert np.array_equal(indptr, [0, 0, 0, 0])
        assert s.size == 0 and d.size == 0


def _loop_mode(seg, values, fill):
    """The per-segment ``np.unique`` mode every scalar LPA computes."""
    out = np.array(fill, dtype=np.int64)
    for s in np.unique(seg):
        vals, counts = np.unique(values[seg == s], return_counts=True)
        out[s] = vals[counts == counts.max()].min()
    return out


@st.composite
def segmented_inputs(draw):
    """Unsorted segment ids, some segments left empty, values drawn from
    ranges narrow enough for heavy ties or wide enough for huge spans."""
    segments = draw(st.integers(1, 12))
    size = draw(st.integers(0, 60))
    top = draw(st.sampled_from([0, 1, 3, 50, 2**40]))
    ints = st.lists(st.integers(0, segments - 1), min_size=size, max_size=size)
    vals = st.lists(st.integers(0, top), min_size=size, max_size=size)
    fill = st.lists(
        st.integers(-3, 3), min_size=segments, max_size=segments
    )
    return (
        np.array(draw(ints), dtype=np.int64),
        np.array(draw(vals), dtype=np.int64),
        np.array(draw(fill), dtype=np.int64),
    )


class TestSegmentedMode:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(segmented_inputs())
    def test_matches_per_segment_unique_loop(self, case):
        seg, values, fill = case
        out = segmented_mode(seg, values, fill)
        assert out.dtype == np.int64
        assert np.array_equal(out, _loop_mode(seg, values, fill))

    def test_ties_go_to_smallest_value(self):
        seg = np.zeros(6, dtype=np.int64)
        out = segmented_mode(seg, np.array([5, 3, 5, 3, 0, 9]), np.array([7]))
        assert out.tolist() == [3]

    def test_empty_segments_keep_fill(self):
        fill = np.array([-1, -1, -1, -1])
        out = segmented_mode(np.array([2, 0, 2]), np.array([4, 1, 4]), fill)
        assert out.tolist() == [1, -1, 4, -1]
        assert fill.tolist() == [-1, -1, -1, -1]  # fill is not written

    def test_values_zero_and_span_minus_one(self):
        out = segmented_mode(
            np.array([1, 0, 1, 0, 1]), np.array([7, 0, 0, 7, 7]),
            np.zeros(2, dtype=np.int64),
        )
        assert out.tolist() == [0, 7]

    def test_empty_input_returns_fresh_fill(self):
        fill = np.array([4, 5])
        out = segmented_mode(np.array([]), np.array([]), fill)
        assert out.tolist() == [4, 5] and out.dtype == np.int64
        assert out is not fill

    def test_negative_value_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            segmented_mode(np.array([0, 0]), np.array([1, -1]), np.zeros(1))

    def test_packed_key_overflow_raises(self):
        with pytest.raises(ValueError, match="overflow"):
            segmented_mode(
                np.array([0, 3]), np.array([0, 2**62]), np.zeros(4)
            )


class TestForwardView:
    @pytest.mark.parametrize(
        "graph",
        [RANDOM, path_graph(20), star_graph(7)],
        ids=["random", "path", "star"],
    )
    def test_flat_view_matches_lists(self, graph):
        indptr, fsrc, fdst = forward_edge_arrays(graph)
        lists = forward_adjacency(graph)
        for v, fv in enumerate(lists):
            assert np.array_equal(fdst[indptr[v]:indptr[v + 1]], fv)

    def test_each_edge_oriented_once(self):
        _, fsrc, fdst = forward_edge_arrays(RANDOM)
        assert fsrc.size == RANDOM.num_edges
        position = vertex_order_positions(RANDOM)
        assert (position[fdst] > position[fsrc]).all()

    def test_self_loops_never_forward(self):
        g = Graph.from_edges(
            [0, 0, 1], [0, 1, 1], num_vertices=3,
            directed=False, drop_self_loops=False,
        )
        _, fsrc, fdst = forward_edge_arrays(g)
        assert (fsrc != fdst).all()
        assert fsrc.size == 1  # only the 0-1 edge

    def test_closed_wedges_count_triangles(self):
        from repro.algorithms.reference import triangle_count

        indptr, fsrc, fdst = forward_edge_arrays(RANDOM)
        v, u, w = closed_wedge_corners(indptr, fsrc, fdst, RANDOM.num_vertices)
        assert v.size == triangle_count(RANDOM)
        # every corner triple really is a triangle
        keys = set((fsrc * RANDOM.num_vertices + fdst).tolist())
        n = RANDOM.num_vertices
        for a, b, c in zip(v.tolist(), u.tolist(), w.tolist()):
            assert a * n + b in keys
            assert b * n + c in keys
            assert a * n + c in keys

    def test_closed_wedges_empty_graph(self):
        g = Graph.from_edges([], [], num_vertices=4, directed=False)
        indptr, fsrc, fdst = forward_edge_arrays(g)
        v, u, w = closed_wedge_corners(indptr, fsrc, fdst, 4)
        assert v.size == u.size == w.size == 0
        assert v.dtype == np.int64


class TestLoopAccounting:
    def test_self_loop_counts(self):
        g = Graph.from_edges(
            [0, 0, 1, 2], [0, 1, 1, 2], num_vertices=4,
            directed=False, drop_self_loops=False,
        )
        assert np.array_equal(self_loop_counts(g), [1, 1, 1, 0])

    def test_simple_degrees_exclude_loops(self):
        g = Graph.from_edges(
            [0, 0], [0, 1], num_vertices=3,
            directed=False, drop_self_loops=False,
        )
        degrees = simple_degrees(g)
        assert degrees.dtype == np.float64
        assert np.array_equal(degrees, [1.0, 1.0, 0.0])


class TestClusteringCoefficients:
    def test_complete_graph_is_fully_clustered(self):
        g = complete_graph(5)
        assert np.array_equal(
            clustering_coefficients(g, np.full(5, 6)), np.ones(5)
        )

    def test_loops_and_low_degree(self):
        """Vertex 0 has a self-loop and simple degree 2; vertices 3 and
        4 have no wedge."""
        g = Graph.from_edges(
            [0, 0, 1, 0, 3], [0, 1, 2, 2, 4], num_vertices=5,
            directed=False, drop_self_loops=False,
        )
        out = clustering_coefficients(g, np.array([1, 1, 1, 0, 0]))
        assert out.dtype == np.float64
        assert out.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]


@st.composite
def census_inputs(draw):
    """Small undirected graphs with self-loops and isolated vertices,
    plus a random vertex placement over 1-4 parts."""
    n = draw(st.integers(1, 14))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40
    ))
    parts = draw(st.integers(1, 4))
    owner = draw(st.lists(st.integers(0, parts - 1), min_size=n, max_size=n))
    src = [a for a, _ in pairs]
    dst = [b for _, b in pairs]
    graph = Graph.from_edges(src, dst, num_vertices=n, directed=False,
                             drop_self_loops=False)
    return graph, np.array(owner, dtype=np.int64), parts


class TestTriangleCensus:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(census_inputs())
    def test_matches_per_edge_task_loop(self, case):
        graph, owner, parts = case
        n = graph.num_vertices
        (v, u, w), ops, pull_root, pull_vertex, calls = triangle_census(
            *forward_edge_arrays(graph), n, owner, parts
        )
        corners, loop_ops, pulls, loop_calls = triangle_loop(
            graph, owner, parts
        )
        assert sorted(zip(v.tolist(), u.tolist(), w.tolist())) == corners
        assert np.array_equal(ops, loop_ops)
        assert set(zip(pull_root.tolist(), pull_vertex.tolist())) == pulls
        assert len(pull_root) == len(pulls)
        assert calls == loop_calls

    def test_empty_graph(self):
        g = Graph.from_edges([], [], num_vertices=3, directed=False)
        corners, ops, pull_root, pull_vertex, calls = triangle_census(
            *forward_edge_arrays(g), 3, np.array([0, 1, 1]), 2
        )
        assert all(c.size == 0 and c.dtype == np.int64 for c in corners)
        assert ops.tolist() == [0.0, 0.0]
        assert pull_root.size == pull_vertex.size == calls == 0


class TestCliqueExpansionLevels:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(census_inputs(), st.sampled_from([3, 4, 5]))
    def test_matches_per_task_dfs_loop(self, case, k):
        graph, _, _ = case
        levels = list(clique_expansion_levels(
            *forward_edge_arrays(graph), graph.num_vertices, k
        ))
        want = clique_level_loop(graph, k)
        assert len(levels) == len(want) <= k - 2
        for level, rows in zip(levels, want):
            assert all(field.dtype == np.int64 for field in level)
            got = sorted(zip(*(field.tolist() for field in level)))
            assert got == rows

    def test_levels_count_cliques(self):
        from repro.algorithms.reference import k_clique_count

        graph = complete_graph(7)
        for k in (3, 4, 5):
            *_, last = clique_expansion_levels(
                *forward_edge_arrays(graph), 7, k
            )
            assert int(last.narrowed.sum()) == k_clique_count(graph, k)

    def test_no_forward_edges_yields_nothing(self):
        g = Graph.from_edges([1], [1], num_vertices=3, directed=False,
                             drop_self_loops=False)
        assert list(clique_expansion_levels(*forward_edge_arrays(g), 3, 4)) == []


@st.composite
def message_batches(draw):
    """Per-message part pairs and whole-byte payloads over 1-5 parts."""
    parts = draw(st.integers(1, 5))
    size = draw(st.integers(0, 40))
    part = st.integers(0, parts - 1)
    src = draw(st.lists(part, min_size=size, max_size=size))
    dst = draw(st.lists(part, min_size=size, max_size=size))
    nbytes = draw(st.lists(st.integers(0, 10**6), min_size=size,
                           max_size=size))
    return (parts, np.array(src, dtype=np.int64),
            np.array(dst, dtype=np.int64), np.array(nbytes, dtype=np.float64))


class TestMessageMatrices:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(message_batches())
    def test_per_message_nbytes_equal_add_message_loop(self, batch):
        parts, src, dst, nbytes = batch
        bulk, loop = TraceRecorder(parts), TraceRecorder(parts)
        bulk.begin_superstep()
        loop.begin_superstep()
        bulk.add_message(0, parts - 1, 8.0)  # a cell already charged
        loop.add_message(0, parts - 1, 8.0)
        bulk.add_message_counts(*message_matrices(src, dst, nbytes, parts))
        for i, j, b in zip(src.tolist(), dst.tolist(), nbytes.tolist()):
            loop.add_message(i, j, b)
        bulk.end_superstep()
        loop.end_superstep()
        (got,), (want,) = bulk.trace.steps, loop.trace.steps
        assert np.array_equal(got.msg_count, want.msg_count)
        assert np.array_equal(got.msg_bytes, want.msg_bytes)

    def test_scalar_payload(self):
        counts, total = message_matrices(
            np.array([0, 0, 1]), np.array([1, 1, 0]), 24.0, 2
        )
        assert counts.tolist() == [[0, 2], [1, 0]]
        assert total.tolist() == [[0.0, 48.0], [24.0, 0.0]]


class TestUniquePullPairs:
    def test_dedupes_and_counts_calls(self):
        owner = np.array([0, 0, 1, 1])
        roots = np.array([0, 0, 0, 1, 1])
        targets = np.array([2, 2, 3, 0, 2])
        pull_root, pull_vertex, calls = unique_pull_pairs(
            roots, targets, owner, 4
        )
        # (1, 2) is local (owner[2] == 1); the four others are remote,
        # with (0, 2) requested twice.
        assert calls == 4
        assert np.array_equal(pull_root, [0, 0, 1])
        assert np.array_equal(pull_vertex, [2, 3, 0])

    def test_all_local(self):
        owner = np.zeros(4, dtype=np.int64)
        pull_root, pull_vertex, calls = unique_pull_pairs(
            np.zeros(3, dtype=np.int64), np.array([1, 2, 3]), owner, 4
        )
        assert calls == 0
        assert pull_root.size == pull_vertex.size == 0


class TestChunkedDrawBuffer:
    def test_scalar_and_bulk_streams_identical(self):
        a = ChunkedDrawBuffer(np.random.default_rng(3), size=16)
        b = ChunkedDrawBuffer(np.random.default_rng(3), size=16)
        scalar = np.array([a.next() for _ in range(50)])
        bulk = np.concatenate([b.take(7), b.take(1), b.take(30), b.take(12)])
        assert np.array_equal(scalar, bulk)

    def test_draws_in_half_open_unit_interval(self):
        buf = ChunkedDrawBuffer(np.random.default_rng(5), size=8)
        draws = buf.take(100)
        assert (draws > 0.0).all() and (draws <= 1.0).all()

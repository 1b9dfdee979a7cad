"""Tests for the DeltaCSR edge-insertion overlay."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.delta import DeltaCSR, _slot_keys, empty_csr_graph
from repro.core.graph import Graph
from repro.datagen.fft import FFTDG, FFTDGConfig
from repro.errors import GraphFormatError


def _fft_graph(n=120, seed=4):
    return FFTDG(FFTDGConfig(num_vertices=n, alpha=20.0, seed=seed)).generate().graph


class TestConstruction:
    def test_needs_base_or_size(self):
        with pytest.raises(GraphFormatError):
            DeltaCSR()

    def test_empty_base(self):
        cursor = DeltaCSR(num_vertices=5)
        assert cursor.num_vertices == 5
        assert cursor.num_edges == 0
        assert cursor.materialize().num_edges == 0

    def test_rejects_directed_base(self):
        g = Graph.from_edges(np.array([0]), np.array([1]), num_vertices=3, directed=True)
        with pytest.raises(GraphFormatError):
            DeltaCSR(g)

    def test_empty_csr_graph_shape(self):
        g = empty_csr_graph(7)
        assert g.num_vertices == 7
        assert g.num_edges == 0
        assert not g.directed


class TestApplyBatch:
    def test_matches_from_edges(self):
        cursor = DeltaCSR(num_vertices=6)
        src = np.array([0, 1, 2, 4])
        dst = np.array([1, 2, 3, 5])
        frontier = cursor.apply_batch(src, dst)
        expected = Graph.from_edges(src, dst, num_vertices=6, directed=False)
        got = cursor.materialize()
        assert np.array_equal(got.indptr, expected.indptr)
        assert np.array_equal(got.indices, expected.indices)
        assert np.array_equal(frontier, np.unique(np.concatenate([src, dst])))

    def test_duplicates_and_self_loops_dropped(self):
        cursor = DeltaCSR(num_vertices=4)
        cursor.apply_batch(np.array([0]), np.array([1]))
        frontier = cursor.apply_batch(
            np.array([1, 0, 2, 2]), np.array([0, 1, 2, 2])
        )
        assert frontier.size == 0
        assert cursor.num_edges == 1
        assert cursor.last_applied[0].size == 0

    def test_empty_batch(self):
        cursor = DeltaCSR(num_vertices=3)
        frontier = cursor.apply_batch(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert frontier.size == 0
        assert cursor.last_applied[0].size == 0

    def test_rejects_out_of_range(self):
        cursor = DeltaCSR(num_vertices=3)
        with pytest.raises(GraphFormatError):
            cursor.apply_batch(np.array([0]), np.array([3]))
        with pytest.raises(GraphFormatError):
            cursor.apply_batch(np.array([-1]), np.array([1]))

    def test_rejects_shape_mismatch(self):
        cursor = DeltaCSR(num_vertices=3)
        with pytest.raises(GraphFormatError):
            cursor.apply_batch(np.array([0, 1]), np.array([1]))

    def test_last_applied_canonical(self):
        cursor = DeltaCSR(num_vertices=5)
        cursor.apply_batch(np.array([3, 1]), np.array([0, 4]))
        a, b = cursor.last_applied
        assert np.array_equal(a, np.minimum(a, b))
        assert set(zip(a.tolist(), b.tolist())) == {(0, 3), (1, 4)}


class TestOverlayViews:
    def test_neighbors_and_has_edge_merge_base_and_delta(self):
        base = Graph.from_edges(np.array([0]), np.array([1]),
                                num_vertices=5, directed=False)
        cursor = DeltaCSR(base)
        cursor.apply_batch(np.array([0, 2]), np.array([3, 4]))
        assert np.array_equal(cursor.neighbors(0), np.array([1, 3]))
        assert cursor.has_edge(0, 1) and cursor.has_edge(3, 0)
        assert cursor.has_edge(2, 4) and not cursor.has_edge(1, 2)
        assert np.array_equal(
            cursor.degrees(), np.array([2, 1, 1, 1, 1])
        )

    def test_base_untouched(self):
        base = Graph.from_edges(np.array([0]), np.array([1]),
                                num_vertices=4, directed=False)
        indptr_before = base.indptr.copy()
        cursor = DeltaCSR(base)
        cursor.apply_batch(np.array([2]), np.array([3]))
        cursor.materialize()
        assert np.array_equal(base.indptr, indptr_before)
        assert base.num_edges == 1


class TestRebase:
    def test_stream_replay_matches_full_rebuild(self):
        graph = _fft_graph()
        src, dst, _ = graph.edge_arrays()
        rng = np.random.default_rng(0)
        order = rng.permutation(src.size)
        src, dst = src[order], dst[order]
        cursor = DeltaCSR(num_vertices=graph.num_vertices)
        bounds = np.linspace(0, src.size, 6).astype(np.int64)
        for t in range(5):
            cursor.apply_batch(src[bounds[t]:bounds[t + 1]],
                               dst[bounds[t]:bounds[t + 1]])
            snap = cursor.rebase()
            expected = Graph.from_edges(
                src[:bounds[t + 1]], dst[:bounds[t + 1]],
                num_vertices=graph.num_vertices,
                directed=False,
            )
            assert np.array_equal(snap.indptr, expected.indptr), f"window {t}"
            assert np.array_equal(snap.indices, expected.indices)
            assert cursor.delta_edges == 0

    def test_total_applied_survives_rebase(self):
        cursor = DeltaCSR(num_vertices=4)
        cursor.apply_batch(np.array([0]), np.array([1]))
        cursor.rebase()
        cursor.apply_batch(np.array([2]), np.array([3]))
        assert cursor.total_applied == 2
        assert cursor.num_edges == 2


N = 9
pairs = st.lists(
    st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)), max_size=12
)


class DeltaCSRMachine(RuleBasedStateMachine):
    """Any interleaving of ``apply_batch`` / ``rebase`` / ``materialize``
    keeps the overlay equal to ``Graph.from_edges`` over every edge
    applied so far, starting from an empty, a sorted or an unsorted
    base."""

    @initialize(base_edges=pairs, base_kind=st.sampled_from(
        ["none", "sorted", "unsorted"]))
    def start(self, base_edges, base_kind):
        self.edges = {
            (min(u, v), max(u, v)) for u, v in base_edges if u != v
        }
        if base_kind == "none":
            self.edges = set()
            self.overlay = DeltaCSR(num_vertices=N)
            self.first_base = self.overlay.base
            return
        base = self._reference()
        if base_kind == "unsorted":
            # Same graph, every adjacency block reversed.
            indices = np.concatenate([
                base.indices[lo:hi][::-1]
                for lo, hi in zip(base.indptr[:-1], base.indptr[1:])
            ])
            base = Graph.from_arrays(base.indptr, indices, directed=False,
                                     num_edges=base.num_edges)
        self.overlay = DeltaCSR(base)
        self.first_base = base

    def _reference(self) -> Graph:
        edges = sorted(self.edges)
        return Graph.from_edges(
            [u for u, _ in edges], [v for _, v in edges],
            num_vertices=N, directed=False,
        )

    def _check_graph(self, graph: Graph) -> None:
        want = self._reference()
        assert np.array_equal(graph.indptr, want.indptr)
        assert graph.num_edges == want.num_edges
        if graph is self.first_base:
            # Nothing merged yet: the base comes back as given, in its
            # own adjacency order.
            assert np.array_equal(_slot_keys(graph), _slot_keys(want))
        else:
            assert np.array_equal(graph.indices, want.indices)

    @rule(batch=pairs)
    def apply_batch(self, batch):
        new = {
            (min(u, v), max(u, v)) for u, v in batch if u != v
        } - self.edges
        frontier = self.overlay.apply_batch(
            np.array([u for u, _ in batch], dtype=np.int64),
            np.array([v for _, v in batch], dtype=np.int64),
        )
        assert frontier.dtype == np.int64
        assert frontier.tolist() == sorted({x for e in new for x in e})
        a, b = self.overlay.last_applied
        assert list(zip(a.tolist(), b.tolist())) == sorted(new)
        self.edges |= new

    @rule()
    def rebase(self):
        self._check_graph(self.overlay.rebase())
        assert self.overlay.delta_edges == 0

    @rule()
    def materialize(self):
        self._check_graph(self.overlay.materialize())

    @precondition(lambda self: hasattr(self, "overlay"))
    @invariant()
    def views_agree(self):
        overlay = self.overlay
        assert overlay.num_edges == len(self.edges)
        assert np.array_equal(overlay._base_key_array(),
                              _slot_keys(overlay.base))
        assert np.array_equal(overlay.degrees(),
                              np.diff(self._reference().indptr))


DeltaCSRMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestDeltaCSRMachine = DeltaCSRMachine.TestCase

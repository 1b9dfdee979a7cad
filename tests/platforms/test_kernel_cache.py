"""Per-graph derived-kernel cache: memoization and GC-driven eviction."""

import gc

import pytest

from repro import obs
from repro.core import random_graph
from repro.platforms.kernels import (
    cached_kernel,
    clear_kernel_cache,
    forward_edge_arrays,
    kernel_cache_stats,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_kernel_cache()
    yield
    clear_kernel_cache()


class TestCachedKernel:
    def test_builder_runs_once_per_graph_and_key(self):
        graph = random_graph(30, 90, seed=4)
        calls = []
        first = cached_kernel(graph, "k", lambda: calls.append(1) or "a")
        second = cached_kernel(graph, "k", lambda: calls.append(1) or "b")
        assert first == "a" and second == "a"
        assert len(calls) == 1
        # A different key on the same graph builds again.
        assert cached_kernel(graph, "k2", lambda: "c") == "c"
        stats = kernel_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 2
        assert stats["graphs"] == 1

    def test_distinct_graphs_do_not_share_entries(self):
        a = random_graph(20, 40, seed=1)
        b = random_graph(20, 40, seed=1)
        assert cached_kernel(a, "k", lambda: "A") == "A"
        assert cached_kernel(b, "k", lambda: "B") == "B"
        assert kernel_cache_stats()["graphs"] == 2

    def test_entries_die_with_the_graph(self):
        graph = random_graph(20, 40, seed=2)
        cached_kernel(graph, "k", lambda: object())
        assert kernel_cache_stats()["graphs"] == 1
        del graph
        gc.collect()
        assert kernel_cache_stats()["graphs"] == 0

    def test_wrapped_kernels_memoize(self):
        graph = random_graph(40, 120, seed=7)
        assert forward_edge_arrays(graph) is forward_edge_arrays(graph)
        stats = kernel_cache_stats()
        assert stats["hits"] >= 1

    def test_counters_reach_the_tracer(self):
        graph = random_graph(20, 40, seed=9)
        with obs.tracing() as tracer:
            cached_kernel(graph, "k", lambda: 1)
            cached_kernel(graph, "k", lambda: 1)
        assert tracer.counters.get(obs.KERNEL_CACHE_MISSES) == 1.0
        assert tracer.counters.get(obs.KERNEL_CACHE_HITS) == 1.0

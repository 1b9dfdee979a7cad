"""Tests for bulk-loaded streams and the dynamic experiment's stream."""

import pytest

from repro.bench.dynamic_exp import dynamic_stream
from repro.datagen.dynamic import generate_stream
from repro.errors import GeneratorParameterError


class TestBulkLoadStream:
    def test_front_loads_the_requested_fraction(self):
        stream = generate_stream(300, edges_per_batch=40, bulk_load=0.9,
                                 seed=5)
        total = stream.total_edges
        assert stream.batches[0].size >= 0.85 * total
        assert all(b.size <= 40 for b in stream.batches[1:])
        assert stream.batches[0].size + sum(
            b.size for b in stream.batches[1:]
        ) == total

    def test_union_unchanged_by_shape(self):
        uniform = generate_stream(250, num_batches=5, seed=9)
        fronted = generate_stream(250, num_batches=5, bulk_load=0.8, seed=9)
        assert uniform.final_graph() == fronted.final_graph()

    def test_zero_bulk_load_is_the_uniform_split(self):
        a = generate_stream(200, num_batches=4, seed=1)
        b = generate_stream(200, num_batches=4, bulk_load=0.0, seed=1)
        assert [x.size for x in a.batches] == [x.size for x in b.batches]

    @pytest.mark.parametrize("fraction", [-0.1, 1.0, 1.5])
    def test_rejects_out_of_range_fraction(self, fraction):
        with pytest.raises(GeneratorParameterError):
            generate_stream(100, bulk_load=fraction)

    def test_times_are_sequential(self):
        stream = generate_stream(200, edges_per_batch=30, bulk_load=0.9,
                                 seed=2)
        assert [b.time for b in stream.batches] == list(range(len(stream)))


class TestDynDatasets:
    def test_stream_is_memoized(self):
        assert dynamic_stream(300, 40) is dynamic_stream(300, 40)

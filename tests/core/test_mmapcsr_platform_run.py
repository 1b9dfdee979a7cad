"""An engine run on a reopened mmap-CSR graph equals the in-memory run.

The container only changes *where the bytes live*: a platform run on the
read-only ``numpy.memmap``-backed graph must produce the same values and
the same metered :class:`~repro.cluster.metrics.RunMetrics`.
"""

import numpy as np

from repro.cluster import single_machine
from repro.core import random_graph
from repro.core.mmapcsr import open_graph_csr, write_graph_csr
from repro.platforms import get_platform


def test_platform_run_on_memmap_graph_matches_memory(tmp_path):
    graph = random_graph(300, 1500, seed=11)
    write_graph_csr(graph, tmp_path / "g.csr")
    mapped, _ = open_graph_csr(tmp_path / "g.csr")
    assert isinstance(mapped.indices.base, np.memmap)
    assert not mapped.indices.flags.writeable
    platform = get_platform("Flash")
    on_disk = platform.run("pr", mapped, single_machine())
    in_memory = platform.run("pr", graph, single_machine())
    assert np.array_equal(on_disk.values, in_memory.values)
    assert on_disk.metrics == in_memory.metrics

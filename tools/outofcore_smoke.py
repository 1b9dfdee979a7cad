"""CI smoke: the out-of-core generation path, end to end, in seconds.

Exercises :mod:`repro.datagen.shards` + :mod:`repro.core.mmapcsr` at
tiny scale:

1. sharded FFT-DG generation straight to an on-disk CSR file, with a
   deliberately small shard size so multiple shards actually happen;
2. zero-copy reopening via ``numpy.memmap`` (asserted: the served
   arrays are mmap-backed and read-only, and byte-identical to the
   in-memory generator's);
3. one PR platform run on the reopened graph, parity-asserted against
   the same run on the in-memory graph.

Exit status is non-zero on any divergence, so CI catches a broken shard
pipeline (wrong bytes), broken reopening (silent copies), and broken
parity (outcomes depending on where the arrays live).
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cluster import single_machine  # noqa: E402
from repro.core.mmapcsr import open_graph_csr  # noqa: E402
from repro.datagen import FFTDG, FFTDGConfig, generate_fft_to_disk  # noqa: E402
from repro.platforms import get_platform  # noqa: E402


def _mmap_backed(array: np.ndarray) -> bool:
    a = array
    while a is not None:
        if isinstance(a, np.memmap):
            return True
        a = a.base
    return False


def main() -> None:
    # 1. Tiny sharded generation: small shards force the multi-shard
    # code path; the result must match the in-memory generator exactly.
    config = FFTDGConfig(num_vertices=1200, alpha=6.0, seed=5)
    mem = FFTDG(config).generate()
    with tempfile.TemporaryDirectory(prefix="repro-ooc-smoke-") as root:
        csr = Path(root) / "smoke.csr"
        gen = generate_fft_to_disk(config, csr, shard_edges=500)
        graph, _ = open_graph_csr(csr, verify_digest=True)
        assert np.array_equal(graph.indptr, mem.graph.indptr), \
            "sharded indptr diverges from in-memory generation"
        assert np.array_equal(graph.indices, mem.graph.indices), \
            "sharded indices diverge from in-memory generation"
        assert gen.counter.trials == mem.counter.trials, \
            "sharded path consumed a different RNG stream"

        # 2. The reopened graph is a zero-copy, read-only view.
        assert _mmap_backed(graph.indices), \
            "reopened CSR graph is not memmap-backed"
        assert not graph.indices.flags.writeable, \
            "reopened CSR arrays must be read-only"

        # 3. One PR run on it, parity-asserted against the in-memory graph.
        platform = get_platform("Flash")
        on_disk = platform.run("pr", graph, single_machine())
        in_memory = platform.run("pr", mem.graph, single_machine())
        assert np.array_equal(on_disk.values, in_memory.values), \
            "PR output depends on where the graph's arrays live"
        assert on_disk.metrics == in_memory.metrics
    print("out-of-core smoke ok: sharded CSR byte-identical, "
          "zero-copy mmap reopening, run parity")


if __name__ == "__main__":
    main()

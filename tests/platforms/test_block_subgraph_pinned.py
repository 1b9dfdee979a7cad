"""Pinned metering of Grape's and G-thinker's subgraph-shaped algorithms.

Grape TC/BC/LCC/KC and G-thinker TC/LCC/KC each used to run as a scalar
per-vertex loop beside a vectorized twin.  The records below were taken
while both forms existed, and the scalar, bulk and default paths all
produced them; the one path left must keep producing them.

A record holds:

* a SHA-256 prefix over the values and every superstep's ``ops``,
  ``msg_count`` and ``msg_bytes`` arrays;
* the superstep count;
* the ``cache_misses`` / ``cache_hits`` tallies (G-thinker's pull
  cache; zero on Grape).

The cluster never reaches the trace, so each ``1m`` record equals its
``4m`` twin; both are kept so a future cluster-dependent engine shows up
here.  BC from source 17 is skipped on graphs with fewer vertices.
"""

import hashlib

import numpy as np
import pytest

from repro import obs
from repro.cluster import scale_out, single_machine
from repro.core import Graph, path_graph, random_graph, star_graph
from repro.datagen import generate_fft
from repro.platforms import get_platform


def _clustered_graph() -> Graph:
    """Five 12-vertex dense clusters chained by bridge edges."""
    rng = np.random.default_rng(11)
    src, dst = [], []
    for c in range(5):
        base = c * 12
        for i in range(12):
            for j in range(i + 1, 12):
                if rng.random() < 0.7:
                    src.append(base + i)
                    dst.append(base + j)
        if c:
            src.append(base - 1)
            dst.append(base)
    return Graph.from_edges(src, dst, num_vertices=60, directed=False)


def _loopy_graph() -> Graph:
    """A triangle with self-loops kept, plus degree-1 and isolated
    vertices."""
    return Graph.from_edges(
        [0, 1, 0, 0, 2, 3], [1, 2, 2, 0, 2, 4], num_vertices=7,
        directed=False, drop_self_loops=False,
    )


GRAPHS = {
    "random": lambda: random_graph(200, 900, seed=13),
    "clustered": _clustered_graph,
    "path": lambda: path_graph(40),
    "star": lambda: star_graph(9),
    "empty": lambda: Graph.from_edges([], [], num_vertices=8, directed=False),
    "loopy": _loopy_graph,
    "fft": lambda: generate_fft(300, seed=3).graph,
}

CLUSTERS = {"1m": single_machine(), "4m": scale_out(4)}

#: (platform, algorithm, params) in record-key order.
RUNS = [
    ("Grape", "tc", {}),
    ("Grape", "bc", {"source": 0}),
    ("Grape", "bc", {"source": 17}),
    ("Grape", "lcc", {}),
    *[("Grape", "kc", {"k": k}) for k in (3, 4, 5)],
    ("G-thinker", "tc", {}),
    ("G-thinker", "lcc", {}),
    *[("G-thinker", "kc", {"k": k}) for k in (3, 4, 5)],
]


def case_key(platform: str, algorithm: str, params: dict, graph: str,
             cluster: str) -> str:
    """``platform/algorithm[:name=value]/graph/cluster``."""
    label = algorithm + "".join(f":{k}={v}" for k, v in params.items())
    return f"{platform}/{label}/{graph}/{cluster}"


_GRAPH_CACHE: dict[str, Graph] = {}


def _graph(name: str) -> Graph:
    if name not in _GRAPH_CACHE:
        _GRAPH_CACHE[name] = GRAPHS[name]()
    return _GRAPH_CACHE[name]


def cases() -> list[tuple[str, tuple]]:
    """Every (key, run) pair, in record order."""
    out = []
    for graph_name in GRAPHS:
        n = _graph(graph_name).num_vertices
        for platform, algorithm, params in RUNS:
            if params.get("source", 0) >= n:
                continue
            for cluster_name in CLUSTERS:
                key = case_key(platform, algorithm, params, graph_name,
                               cluster_name)
                out.append((key, (platform, algorithm, params, graph_name,
                                  cluster_name)))
    return out


def record(platform: str, algorithm: str, params: dict, graph_name: str,
           cluster_name: str) -> tuple[str, int, int, int]:
    """Run one case and reduce it to its pinned record."""
    with obs.tracing() as tracer:
        run = get_platform(platform).run(
            algorithm, _graph(graph_name), CLUSTERS[cluster_name], **params
        )
    digest = hashlib.sha256()
    values = run.values
    if isinstance(values, np.ndarray):
        digest.update(values.dtype.str.encode())
        digest.update(np.ascontiguousarray(values).tobytes())
    else:
        digest.update(repr(int(values)).encode())
    for step in run.trace.steps:
        for arr in (step.ops, step.msg_count, step.msg_bytes):
            digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    counters = tracer.counters.snapshot()
    return (
        digest.hexdigest()[:16],
        run.trace.supersteps,
        int(counters.get(obs.CACHE_MISSES, 0.0)),
        int(counters.get(obs.CACHE_HITS, 0.0)),
    )


#: key -> (digest prefix, supersteps, cache_misses, cache_hits)
PINS = {
    "Grape/tc/random/1m": ("943df1018a5e3933", 1, 0, 0),
    "Grape/tc/random/4m": ("943df1018a5e3933", 1, 0, 0),
    "Grape/bc:source=0/random/1m": ("418f562be09ae145", 12, 0, 0),
    "Grape/bc:source=0/random/4m": ("418f562be09ae145", 12, 0, 0),
    "Grape/bc:source=17/random/1m": ("0544539390f89cfa", 12, 0, 0),
    "Grape/bc:source=17/random/4m": ("0544539390f89cfa", 12, 0, 0),
    "Grape/lcc/random/1m": ("7e72c4be26d3ac26", 1, 0, 0),
    "Grape/lcc/random/4m": ("7e72c4be26d3ac26", 1, 0, 0),
    "Grape/kc:k=3/random/1m": ("2f084823278cb120", 1, 0, 0),
    "Grape/kc:k=3/random/4m": ("2f084823278cb120", 1, 0, 0),
    "Grape/kc:k=4/random/1m": ("9e67d01c682c92aa", 1, 0, 0),
    "Grape/kc:k=4/random/4m": ("9e67d01c682c92aa", 1, 0, 0),
    "Grape/kc:k=5/random/1m": ("b5eae18b5ef6164d", 1, 0, 0),
    "Grape/kc:k=5/random/4m": ("b5eae18b5ef6164d", 1, 0, 0),
    "G-thinker/tc/random/1m": ("03348813e87b279d", 1, 675, 163),
    "G-thinker/tc/random/4m": ("03348813e87b279d", 1, 675, 163),
    "G-thinker/lcc/random/1m": ("53eedbd310711fc8", 1, 675, 163),
    "G-thinker/lcc/random/4m": ("53eedbd310711fc8", 1, 675, 163),
    "G-thinker/kc:k=3/random/1m": ("146e68207341a253", 1, 675, 163),
    "G-thinker/kc:k=3/random/4m": ("146e68207341a253", 1, 675, 163),
    "G-thinker/kc:k=4/random/1m": ("4b6874469c85574a", 1, 675, 271),
    "G-thinker/kc:k=4/random/4m": ("4b6874469c85574a", 1, 675, 271),
    "G-thinker/kc:k=5/random/1m": ("28629843bf522dc7", 1, 675, 180),
    "G-thinker/kc:k=5/random/4m": ("28629843bf522dc7", 1, 675, 180),
    "Grape/tc/clustered/1m": ("18c425aa12309511", 1, 0, 0),
    "Grape/tc/clustered/4m": ("18c425aa12309511", 1, 0, 0),
    "Grape/bc:source=0/clustered/1m": ("91a9a923d243417a", 28, 0, 0),
    "Grape/bc:source=0/clustered/4m": ("91a9a923d243417a", 28, 0, 0),
    "Grape/bc:source=17/clustered/1m": ("a54a49040ca0c2b7", 22, 0, 0),
    "Grape/bc:source=17/clustered/4m": ("a54a49040ca0c2b7", 22, 0, 0),
    "Grape/lcc/clustered/1m": ("fcd69304b4fe8160", 1, 0, 0),
    "Grape/lcc/clustered/4m": ("fcd69304b4fe8160", 1, 0, 0),
    "Grape/kc:k=3/clustered/1m": ("77de1758d2811492", 1, 0, 0),
    "Grape/kc:k=3/clustered/4m": ("77de1758d2811492", 1, 0, 0),
    "Grape/kc:k=4/clustered/1m": ("b2836bb06eb4521f", 1, 0, 0),
    "Grape/kc:k=4/clustered/4m": ("b2836bb06eb4521f", 1, 0, 0),
    "Grape/kc:k=5/clustered/1m": ("bbbf4ce1e80e6d89", 1, 0, 0),
    "Grape/kc:k=5/clustered/4m": ("bbbf4ce1e80e6d89", 1, 0, 0),
    "G-thinker/tc/clustered/1m": ("7f70de523601b32e", 1, 168, 55),
    "G-thinker/tc/clustered/4m": ("7f70de523601b32e", 1, 168, 55),
    "G-thinker/lcc/clustered/1m": ("03a5b7053eea4edd", 1, 168, 55),
    "G-thinker/lcc/clustered/4m": ("03a5b7053eea4edd", 1, 168, 55),
    "G-thinker/kc:k=3/clustered/1m": ("6c422a1a5532b264", 1, 168, 55),
    "G-thinker/kc:k=3/clustered/4m": ("6c422a1a5532b264", 1, 168, 55),
    "G-thinker/kc:k=4/clustered/1m": ("202609bc732b3c94", 1, 168, 421),
    "G-thinker/kc:k=4/clustered/4m": ("202609bc732b3c94", 1, 168, 421),
    "G-thinker/kc:k=5/clustered/1m": ("abd56b1ca4906452", 1, 168, 652),
    "G-thinker/kc:k=5/clustered/4m": ("abd56b1ca4906452", 1, 168, 652),
    "Grape/tc/path/1m": ("aae7cd2be725dec0", 1, 0, 0),
    "Grape/tc/path/4m": ("aae7cd2be725dec0", 1, 0, 0),
    "Grape/bc:source=0/path/1m": ("dacb94532b174d2e", 94, 0, 0),
    "Grape/bc:source=0/path/4m": ("dacb94532b174d2e", 94, 0, 0),
    "Grape/bc:source=17/path/1m": ("ac308ad014450ee1", 54, 0, 0),
    "Grape/bc:source=17/path/4m": ("ac308ad014450ee1", 54, 0, 0),
    "Grape/lcc/path/1m": ("039af4865805fd36", 1, 0, 0),
    "Grape/lcc/path/4m": ("039af4865805fd36", 1, 0, 0),
    "Grape/kc:k=3/path/1m": ("d2d714138d984bbe", 1, 0, 0),
    "Grape/kc:k=3/path/4m": ("d2d714138d984bbe", 1, 0, 0),
    "Grape/kc:k=4/path/1m": ("d2d714138d984bbe", 1, 0, 0),
    "Grape/kc:k=4/path/4m": ("d2d714138d984bbe", 1, 0, 0),
    "Grape/kc:k=5/path/1m": ("d2d714138d984bbe", 1, 0, 0),
    "Grape/kc:k=5/path/4m": ("d2d714138d984bbe", 1, 0, 0),
    "G-thinker/tc/path/1m": ("35f4a37c4013d67f", 1, 39, 0),
    "G-thinker/tc/path/4m": ("35f4a37c4013d67f", 1, 39, 0),
    "G-thinker/lcc/path/1m": ("baf3960a0523f592", 1, 39, 0),
    "G-thinker/lcc/path/4m": ("baf3960a0523f592", 1, 39, 0),
    "G-thinker/kc:k=3/path/1m": ("4aa2953b8b7ea95c", 1, 39, 0),
    "G-thinker/kc:k=3/path/4m": ("4aa2953b8b7ea95c", 1, 39, 0),
    "G-thinker/kc:k=4/path/1m": ("4aa2953b8b7ea95c", 1, 39, 0),
    "G-thinker/kc:k=4/path/4m": ("4aa2953b8b7ea95c", 1, 39, 0),
    "G-thinker/kc:k=5/path/1m": ("4aa2953b8b7ea95c", 1, 39, 0),
    "G-thinker/kc:k=5/path/4m": ("4aa2953b8b7ea95c", 1, 39, 0),
    "Grape/tc/star/1m": ("f492b9a710be53ac", 1, 0, 0),
    "Grape/tc/star/4m": ("f492b9a710be53ac", 1, 0, 0),
    "Grape/bc:source=0/star/1m": ("84ff70cdcda9e828", 4, 0, 0),
    "Grape/bc:source=0/star/4m": ("84ff70cdcda9e828", 4, 0, 0),
    "Grape/lcc/star/1m": ("72e7dc53a4f2aa16", 1, 0, 0),
    "Grape/lcc/star/4m": ("72e7dc53a4f2aa16", 1, 0, 0),
    "Grape/kc:k=3/star/1m": ("5235b5019a64f1ac", 1, 0, 0),
    "Grape/kc:k=3/star/4m": ("5235b5019a64f1ac", 1, 0, 0),
    "Grape/kc:k=4/star/1m": ("5235b5019a64f1ac", 1, 0, 0),
    "Grape/kc:k=4/star/4m": ("5235b5019a64f1ac", 1, 0, 0),
    "Grape/kc:k=5/star/1m": ("5235b5019a64f1ac", 1, 0, 0),
    "Grape/kc:k=5/star/4m": ("5235b5019a64f1ac", 1, 0, 0),
    "G-thinker/tc/star/1m": ("9d86e03b354fd269", 1, 6, 2),
    "G-thinker/tc/star/4m": ("9d86e03b354fd269", 1, 6, 2),
    "G-thinker/lcc/star/1m": ("e7b249a02fe5bc35", 1, 6, 2),
    "G-thinker/lcc/star/4m": ("e7b249a02fe5bc35", 1, 6, 2),
    "G-thinker/kc:k=3/star/1m": ("dd67c5f776fde3f7", 1, 6, 2),
    "G-thinker/kc:k=3/star/4m": ("dd67c5f776fde3f7", 1, 6, 2),
    "G-thinker/kc:k=4/star/1m": ("dd67c5f776fde3f7", 1, 6, 2),
    "G-thinker/kc:k=4/star/4m": ("dd67c5f776fde3f7", 1, 6, 2),
    "G-thinker/kc:k=5/star/1m": ("dd67c5f776fde3f7", 1, 6, 2),
    "G-thinker/kc:k=5/star/4m": ("dd67c5f776fde3f7", 1, 6, 2),
    "Grape/tc/empty/1m": ("5f0915716e7e109e", 1, 0, 0),
    "Grape/tc/empty/4m": ("5f0915716e7e109e", 1, 0, 0),
    "Grape/bc:source=0/empty/1m": ("b192f61d4ae537c5", 1, 0, 0),
    "Grape/bc:source=0/empty/4m": ("b192f61d4ae537c5", 1, 0, 0),
    "Grape/lcc/empty/1m": ("b40446980b6c7e91", 1, 0, 0),
    "Grape/lcc/empty/4m": ("b40446980b6c7e91", 1, 0, 0),
    "Grape/kc:k=3/empty/1m": ("b91e99dd19946afa", 1, 0, 0),
    "Grape/kc:k=3/empty/4m": ("b91e99dd19946afa", 1, 0, 0),
    "Grape/kc:k=4/empty/1m": ("b91e99dd19946afa", 1, 0, 0),
    "Grape/kc:k=4/empty/4m": ("b91e99dd19946afa", 1, 0, 0),
    "Grape/kc:k=5/empty/1m": ("b91e99dd19946afa", 1, 0, 0),
    "Grape/kc:k=5/empty/4m": ("b91e99dd19946afa", 1, 0, 0),
    "G-thinker/tc/empty/1m": ("5f0915716e7e109e", 1, 0, 0),
    "G-thinker/tc/empty/4m": ("5f0915716e7e109e", 1, 0, 0),
    "G-thinker/lcc/empty/1m": ("b40446980b6c7e91", 1, 0, 0),
    "G-thinker/lcc/empty/4m": ("b40446980b6c7e91", 1, 0, 0),
    "G-thinker/kc:k=3/empty/1m": ("2b86c34f5d08cb98", 1, 0, 0),
    "G-thinker/kc:k=3/empty/4m": ("2b86c34f5d08cb98", 1, 0, 0),
    "G-thinker/kc:k=4/empty/1m": ("2b86c34f5d08cb98", 1, 0, 0),
    "G-thinker/kc:k=4/empty/4m": ("2b86c34f5d08cb98", 1, 0, 0),
    "G-thinker/kc:k=5/empty/1m": ("2b86c34f5d08cb98", 1, 0, 0),
    "G-thinker/kc:k=5/empty/4m": ("2b86c34f5d08cb98", 1, 0, 0),
    "Grape/tc/loopy/1m": ("0c15722b27f29eb0", 1, 0, 0),
    "Grape/tc/loopy/4m": ("0c15722b27f29eb0", 1, 0, 0),
    "Grape/bc:source=0/loopy/1m": ("24b6b21d34ecf9ca", 4, 0, 0),
    "Grape/bc:source=0/loopy/4m": ("24b6b21d34ecf9ca", 4, 0, 0),
    "Grape/lcc/loopy/1m": ("045045301ac284f4", 1, 0, 0),
    "Grape/lcc/loopy/4m": ("045045301ac284f4", 1, 0, 0),
    "Grape/kc:k=3/loopy/1m": ("dd8d8ac2de59ee4b", 1, 0, 0),
    "Grape/kc:k=3/loopy/4m": ("dd8d8ac2de59ee4b", 1, 0, 0),
    "Grape/kc:k=4/loopy/1m": ("1e05339afa5bff6d", 1, 0, 0),
    "Grape/kc:k=4/loopy/4m": ("1e05339afa5bff6d", 1, 0, 0),
    "Grape/kc:k=5/loopy/1m": ("1abf449cfb2dcf44", 1, 0, 0),
    "Grape/kc:k=5/loopy/4m": ("1abf449cfb2dcf44", 1, 0, 0),
    "G-thinker/tc/loopy/1m": ("461ec2a9b99275b8", 1, 4, 0),
    "G-thinker/tc/loopy/4m": ("461ec2a9b99275b8", 1, 4, 0),
    "G-thinker/lcc/loopy/1m": ("b9ace9ee3890e589", 1, 4, 0),
    "G-thinker/lcc/loopy/4m": ("b9ace9ee3890e589", 1, 4, 0),
    "G-thinker/kc:k=3/loopy/1m": ("d5d7214605706340", 1, 4, 0),
    "G-thinker/kc:k=3/loopy/4m": ("d5d7214605706340", 1, 4, 0),
    "G-thinker/kc:k=4/loopy/1m": ("02b47a7981237e51", 1, 4, 1),
    "G-thinker/kc:k=4/loopy/4m": ("02b47a7981237e51", 1, 4, 1),
    "G-thinker/kc:k=5/loopy/1m": ("06145674fccdba4d", 1, 4, 0),
    "G-thinker/kc:k=5/loopy/4m": ("06145674fccdba4d", 1, 4, 0),
    "Grape/tc/fft/1m": ("ff02ab36f1d240f3", 1, 0, 0),
    "Grape/tc/fft/4m": ("ff02ab36f1d240f3", 1, 0, 0),
    "Grape/bc:source=0/fft/1m": ("17c5f839ae25f4f8", 9, 0, 0),
    "Grape/bc:source=0/fft/4m": ("17c5f839ae25f4f8", 9, 0, 0),
    "Grape/bc:source=17/fft/1m": ("2b08ee29d9ed13df", 9, 0, 0),
    "Grape/bc:source=17/fft/4m": ("2b08ee29d9ed13df", 9, 0, 0),
    "Grape/lcc/fft/1m": ("b9f2f223b094dad4", 1, 0, 0),
    "Grape/lcc/fft/4m": ("b9f2f223b094dad4", 1, 0, 0),
    "Grape/kc:k=3/fft/1m": ("db2aa239c5239af4", 1, 0, 0),
    "Grape/kc:k=3/fft/4m": ("db2aa239c5239af4", 1, 0, 0),
    "Grape/kc:k=4/fft/1m": ("c0999ca6f0e3fb05", 1, 0, 0),
    "Grape/kc:k=4/fft/4m": ("c0999ca6f0e3fb05", 1, 0, 0),
    "Grape/kc:k=5/fft/1m": ("b603e90b481d9b95", 1, 0, 0),
    "Grape/kc:k=5/fft/4m": ("b603e90b481d9b95", 1, 0, 0),
    "G-thinker/tc/fft/1m": ("3885d1ee13aeb6d0", 1, 2354, 1962),
    "G-thinker/tc/fft/4m": ("3885d1ee13aeb6d0", 1, 2354, 1962),
    "G-thinker/lcc/fft/1m": ("75b6952fef0f1fb1", 1, 2354, 1962),
    "G-thinker/lcc/fft/4m": ("75b6952fef0f1fb1", 1, 2354, 1962),
    "G-thinker/kc:k=3/fft/1m": ("1ebff9fb3b9cb17a", 1, 2354, 1962),
    "G-thinker/kc:k=3/fft/4m": ("1ebff9fb3b9cb17a", 1, 2354, 1962),
    "G-thinker/kc:k=4/fft/1m": ("4986666e277fe581", 1, 2354, 12522),
    "G-thinker/kc:k=4/fft/4m": ("4986666e277fe581", 1, 2354, 12522),
    "G-thinker/kc:k=5/fft/1m": ("beff60f63a6cd1eb", 1, 2354, 21629),
    "G-thinker/kc:k=5/fft/4m": ("beff60f63a6cd1eb", 1, 2354, 21629),
}


CASES = cases()


def test_pins_cover_every_case():
    assert [key for key, _ in CASES] == list(PINS)
    assert len(PINS) == 162


@pytest.mark.parametrize("key,case", CASES, ids=[k for k, _ in CASES])
def test_metering_pinned(key, case):
    assert record(*case) == PINS[key]

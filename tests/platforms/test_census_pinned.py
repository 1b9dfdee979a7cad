"""Pinned metering of TC, LCC and KC on the vertex- and edge-centric
platforms.

GraphX, Pregel+, Flash and Ligra run the subgraph algorithms as vertex
programs that ship forward adjacency lists and partial cliques;
PowerGraph runs them as per-edge intersections and a master-routed
clique expansion.  The records below were taken while every one of
them still sent one message per forward edge or partial clique from a
Python loop; the array census that replaces those loops must keep
producing them.

A record is either a SHA-256 prefix over the values and every
superstep's ``ops``, ``msg_count`` and ``msg_bytes`` arrays, plus the
superstep count, or the name of the error the run raised (Ligra is
shared-memory and refuses more than one machine).  The graphs are the
seven of ``test_block_subgraph_pinned``.
"""

import hashlib

import numpy as np
import pytest

from repro.errors import PlatformError
from repro.platforms import get_platform

from test_block_subgraph_pinned import CLUSTERS, GRAPHS, _graph, case_key

PLATFORMS = ("Pregel+", "GraphX", "Flash", "Ligra", "PowerGraph")

#: (algorithm, params) in record-key order.
RUNS = [
    ("tc", {}),
    ("lcc", {}),
    *[("kc", {"k": k}) for k in (3, 4, 5)],
]


def cases() -> list[tuple[str, tuple]]:
    """Every (key, run) pair, in record order."""
    out = []
    for graph_name in GRAPHS:
        for platform in PLATFORMS:
            for algorithm, params in RUNS:
                for cluster_name in CLUSTERS:
                    key = case_key(platform, algorithm, params, graph_name,
                                   cluster_name)
                    out.append((key, (platform, algorithm, params,
                                      graph_name, cluster_name)))
    return out


def record(platform: str, algorithm: str, params: dict, graph_name: str,
           cluster_name: str, **options) -> tuple[str, int]:
    """Run one case and reduce it to its pinned record."""
    try:
        run = get_platform(platform).run(
            algorithm, _graph(graph_name), CLUSTERS[cluster_name],
            **params, **options,
        )
    except PlatformError as exc:
        return type(exc).__name__, 0
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
    return digest.hexdigest()[:16], run.trace.supersteps


#: key -> (digest prefix or error name, supersteps)
PINS = {
    "Pregel+/tc/random/1m": ("4bb208c12ed2ada6", 2),
    "Pregel+/tc/random/4m": ("4bb208c12ed2ada6", 2),
    "Pregel+/lcc/random/1m": ("825c575f90c0d341", 3),
    "Pregel+/lcc/random/4m": ("825c575f90c0d341", 3),
    "Pregel+/kc:k=3/random/1m": ("6193257a580a47e9", 2),
    "Pregel+/kc:k=3/random/4m": ("6193257a580a47e9", 2),
    "Pregel+/kc:k=4/random/1m": ("9f3d7ef1c2ba9f50", 3),
    "Pregel+/kc:k=4/random/4m": ("9f3d7ef1c2ba9f50", 3),
    "Pregel+/kc:k=5/random/1m": ("456aeab1808dbef0", 4),
    "Pregel+/kc:k=5/random/4m": ("456aeab1808dbef0", 4),
    "GraphX/tc/random/1m": ("4bb208c12ed2ada6", 2),
    "GraphX/tc/random/4m": ("4bb208c12ed2ada6", 2),
    "GraphX/lcc/random/1m": ("825c575f90c0d341", 3),
    "GraphX/lcc/random/4m": ("825c575f90c0d341", 3),
    "GraphX/kc:k=3/random/1m": ("6193257a580a47e9", 2),
    "GraphX/kc:k=3/random/4m": ("6193257a580a47e9", 2),
    "GraphX/kc:k=4/random/1m": ("9f3d7ef1c2ba9f50", 3),
    "GraphX/kc:k=4/random/4m": ("9f3d7ef1c2ba9f50", 3),
    "GraphX/kc:k=5/random/1m": ("456aeab1808dbef0", 4),
    "GraphX/kc:k=5/random/4m": ("456aeab1808dbef0", 4),
    "Flash/tc/random/1m": ("a77a34114704f508", 2),
    "Flash/tc/random/4m": ("a77a34114704f508", 2),
    "Flash/lcc/random/1m": ("8c0dbcfe3afd4763", 3),
    "Flash/lcc/random/4m": ("8c0dbcfe3afd4763", 3),
    "Flash/kc:k=3/random/1m": ("b8463be5b1d61fc6", 2),
    "Flash/kc:k=3/random/4m": ("b8463be5b1d61fc6", 2),
    "Flash/kc:k=4/random/1m": ("9f6cdde1d9e947fc", 3),
    "Flash/kc:k=4/random/4m": ("9f6cdde1d9e947fc", 3),
    "Flash/kc:k=5/random/1m": ("327a1676cf4c8f3c", 4),
    "Flash/kc:k=5/random/4m": ("327a1676cf4c8f3c", 4),
    "Ligra/tc/random/1m": ("a77a34114704f508", 2),
    "Ligra/tc/random/4m": ("PlatformError", 0),
    "Ligra/lcc/random/1m": ("8c0dbcfe3afd4763", 3),
    "Ligra/lcc/random/4m": ("PlatformError", 0),
    "Ligra/kc:k=3/random/1m": ("b8463be5b1d61fc6", 2),
    "Ligra/kc:k=3/random/4m": ("PlatformError", 0),
    "Ligra/kc:k=4/random/1m": ("9f6cdde1d9e947fc", 3),
    "Ligra/kc:k=4/random/4m": ("PlatformError", 0),
    "Ligra/kc:k=5/random/1m": ("327a1676cf4c8f3c", 4),
    "Ligra/kc:k=5/random/4m": ("PlatformError", 0),
    "PowerGraph/tc/random/1m": ("cf386d1d93c1bd3a", 1),
    "PowerGraph/tc/random/4m": ("cf386d1d93c1bd3a", 1),
    "PowerGraph/lcc/random/1m": ("56bda2198180a09f", 1),
    "PowerGraph/lcc/random/4m": ("56bda2198180a09f", 1),
    "PowerGraph/kc:k=3/random/1m": ("0e32b526e0e054cd", 2),
    "PowerGraph/kc:k=3/random/4m": ("0e32b526e0e054cd", 2),
    "PowerGraph/kc:k=4/random/1m": ("453e552239c1b1fa", 3),
    "PowerGraph/kc:k=4/random/4m": ("453e552239c1b1fa", 3),
    "PowerGraph/kc:k=5/random/1m": ("157826703cea5e54", 4),
    "PowerGraph/kc:k=5/random/4m": ("157826703cea5e54", 4),
    "Pregel+/tc/clustered/1m": ("e39a974ad8fbd7f8", 2),
    "Pregel+/tc/clustered/4m": ("e39a974ad8fbd7f8", 2),
    "Pregel+/lcc/clustered/1m": ("495480c88cb1ad67", 3),
    "Pregel+/lcc/clustered/4m": ("495480c88cb1ad67", 3),
    "Pregel+/kc:k=3/clustered/1m": ("005c356e893a014c", 2),
    "Pregel+/kc:k=3/clustered/4m": ("005c356e893a014c", 2),
    "Pregel+/kc:k=4/clustered/1m": ("473ef5f40dd87b75", 3),
    "Pregel+/kc:k=4/clustered/4m": ("473ef5f40dd87b75", 3),
    "Pregel+/kc:k=5/clustered/1m": ("54be6092e8d61589", 4),
    "Pregel+/kc:k=5/clustered/4m": ("54be6092e8d61589", 4),
    "GraphX/tc/clustered/1m": ("e39a974ad8fbd7f8", 2),
    "GraphX/tc/clustered/4m": ("e39a974ad8fbd7f8", 2),
    "GraphX/lcc/clustered/1m": ("495480c88cb1ad67", 3),
    "GraphX/lcc/clustered/4m": ("495480c88cb1ad67", 3),
    "GraphX/kc:k=3/clustered/1m": ("005c356e893a014c", 2),
    "GraphX/kc:k=3/clustered/4m": ("005c356e893a014c", 2),
    "GraphX/kc:k=4/clustered/1m": ("473ef5f40dd87b75", 3),
    "GraphX/kc:k=4/clustered/4m": ("473ef5f40dd87b75", 3),
    "GraphX/kc:k=5/clustered/1m": ("54be6092e8d61589", 4),
    "GraphX/kc:k=5/clustered/4m": ("54be6092e8d61589", 4),
    "Flash/tc/clustered/1m": ("1aed5741547d7d66", 2),
    "Flash/tc/clustered/4m": ("1aed5741547d7d66", 2),
    "Flash/lcc/clustered/1m": ("3a1e8d2e21d5fdbb", 3),
    "Flash/lcc/clustered/4m": ("3a1e8d2e21d5fdbb", 3),
    "Flash/kc:k=3/clustered/1m": ("2926c7f4027621be", 2),
    "Flash/kc:k=3/clustered/4m": ("2926c7f4027621be", 2),
    "Flash/kc:k=4/clustered/1m": ("6d0be22aadb3481c", 3),
    "Flash/kc:k=4/clustered/4m": ("6d0be22aadb3481c", 3),
    "Flash/kc:k=5/clustered/1m": ("1d51f86f73e6a5d2", 4),
    "Flash/kc:k=5/clustered/4m": ("1d51f86f73e6a5d2", 4),
    "Ligra/tc/clustered/1m": ("1aed5741547d7d66", 2),
    "Ligra/tc/clustered/4m": ("PlatformError", 0),
    "Ligra/lcc/clustered/1m": ("3a1e8d2e21d5fdbb", 3),
    "Ligra/lcc/clustered/4m": ("PlatformError", 0),
    "Ligra/kc:k=3/clustered/1m": ("2926c7f4027621be", 2),
    "Ligra/kc:k=3/clustered/4m": ("PlatformError", 0),
    "Ligra/kc:k=4/clustered/1m": ("6d0be22aadb3481c", 3),
    "Ligra/kc:k=4/clustered/4m": ("PlatformError", 0),
    "Ligra/kc:k=5/clustered/1m": ("1d51f86f73e6a5d2", 4),
    "Ligra/kc:k=5/clustered/4m": ("PlatformError", 0),
    "PowerGraph/tc/clustered/1m": ("e84a4dd0a984c118", 1),
    "PowerGraph/tc/clustered/4m": ("e84a4dd0a984c118", 1),
    "PowerGraph/lcc/clustered/1m": ("d370fc72baec1f4e", 1),
    "PowerGraph/lcc/clustered/4m": ("d370fc72baec1f4e", 1),
    "PowerGraph/kc:k=3/clustered/1m": ("aadb74ecb83247c0", 2),
    "PowerGraph/kc:k=3/clustered/4m": ("aadb74ecb83247c0", 2),
    "PowerGraph/kc:k=4/clustered/1m": ("9ff143dcbe5b5a1c", 3),
    "PowerGraph/kc:k=4/clustered/4m": ("9ff143dcbe5b5a1c", 3),
    "PowerGraph/kc:k=5/clustered/1m": ("984fff90fb3bd201", 4),
    "PowerGraph/kc:k=5/clustered/4m": ("984fff90fb3bd201", 4),
    "Pregel+/tc/path/1m": ("b82ac57bf30ba74d", 2),
    "Pregel+/tc/path/4m": ("b82ac57bf30ba74d", 2),
    "Pregel+/lcc/path/1m": ("22bdd670661e30d2", 3),
    "Pregel+/lcc/path/4m": ("22bdd670661e30d2", 3),
    "Pregel+/kc:k=3/path/1m": ("74abadf90a5f8ec9", 2),
    "Pregel+/kc:k=3/path/4m": ("74abadf90a5f8ec9", 2),
    "Pregel+/kc:k=4/path/1m": ("74abadf90a5f8ec9", 2),
    "Pregel+/kc:k=4/path/4m": ("74abadf90a5f8ec9", 2),
    "Pregel+/kc:k=5/path/1m": ("74abadf90a5f8ec9", 2),
    "Pregel+/kc:k=5/path/4m": ("74abadf90a5f8ec9", 2),
    "GraphX/tc/path/1m": ("b82ac57bf30ba74d", 2),
    "GraphX/tc/path/4m": ("b82ac57bf30ba74d", 2),
    "GraphX/lcc/path/1m": ("22bdd670661e30d2", 3),
    "GraphX/lcc/path/4m": ("22bdd670661e30d2", 3),
    "GraphX/kc:k=3/path/1m": ("74abadf90a5f8ec9", 2),
    "GraphX/kc:k=3/path/4m": ("74abadf90a5f8ec9", 2),
    "GraphX/kc:k=4/path/1m": ("74abadf90a5f8ec9", 2),
    "GraphX/kc:k=4/path/4m": ("74abadf90a5f8ec9", 2),
    "GraphX/kc:k=5/path/1m": ("74abadf90a5f8ec9", 2),
    "GraphX/kc:k=5/path/4m": ("74abadf90a5f8ec9", 2),
    "Flash/tc/path/1m": ("d84669b51480c039", 2),
    "Flash/tc/path/4m": ("d84669b51480c039", 2),
    "Flash/lcc/path/1m": ("fb65b111ea89d415", 3),
    "Flash/lcc/path/4m": ("fb65b111ea89d415", 3),
    "Flash/kc:k=3/path/1m": ("b237d5e4c2858c31", 2),
    "Flash/kc:k=3/path/4m": ("b237d5e4c2858c31", 2),
    "Flash/kc:k=4/path/1m": ("b237d5e4c2858c31", 2),
    "Flash/kc:k=4/path/4m": ("b237d5e4c2858c31", 2),
    "Flash/kc:k=5/path/1m": ("b237d5e4c2858c31", 2),
    "Flash/kc:k=5/path/4m": ("b237d5e4c2858c31", 2),
    "Ligra/tc/path/1m": ("d84669b51480c039", 2),
    "Ligra/tc/path/4m": ("PlatformError", 0),
    "Ligra/lcc/path/1m": ("fb65b111ea89d415", 3),
    "Ligra/lcc/path/4m": ("PlatformError", 0),
    "Ligra/kc:k=3/path/1m": ("b237d5e4c2858c31", 2),
    "Ligra/kc:k=3/path/4m": ("PlatformError", 0),
    "Ligra/kc:k=4/path/1m": ("b237d5e4c2858c31", 2),
    "Ligra/kc:k=4/path/4m": ("PlatformError", 0),
    "Ligra/kc:k=5/path/1m": ("b237d5e4c2858c31", 2),
    "Ligra/kc:k=5/path/4m": ("PlatformError", 0),
    "PowerGraph/tc/path/1m": ("044854822bd61d72", 1),
    "PowerGraph/tc/path/4m": ("044854822bd61d72", 1),
    "PowerGraph/lcc/path/1m": ("f6cc0bce222a950a", 1),
    "PowerGraph/lcc/path/4m": ("f6cc0bce222a950a", 1),
    "PowerGraph/kc:k=3/path/1m": ("3d2b5b950e004619", 2),
    "PowerGraph/kc:k=3/path/4m": ("3d2b5b950e004619", 2),
    "PowerGraph/kc:k=4/path/1m": ("3d2b5b950e004619", 2),
    "PowerGraph/kc:k=4/path/4m": ("3d2b5b950e004619", 2),
    "PowerGraph/kc:k=5/path/1m": ("3d2b5b950e004619", 2),
    "PowerGraph/kc:k=5/path/4m": ("3d2b5b950e004619", 2),
    "Pregel+/tc/star/1m": ("b8f48e0bcf5f96b1", 2),
    "Pregel+/tc/star/4m": ("b8f48e0bcf5f96b1", 2),
    "Pregel+/lcc/star/1m": ("37b325898be6b37e", 3),
    "Pregel+/lcc/star/4m": ("37b325898be6b37e", 3),
    "Pregel+/kc:k=3/star/1m": ("65938a24750448a3", 2),
    "Pregel+/kc:k=3/star/4m": ("65938a24750448a3", 2),
    "Pregel+/kc:k=4/star/1m": ("65938a24750448a3", 2),
    "Pregel+/kc:k=4/star/4m": ("65938a24750448a3", 2),
    "Pregel+/kc:k=5/star/1m": ("65938a24750448a3", 2),
    "Pregel+/kc:k=5/star/4m": ("65938a24750448a3", 2),
    "GraphX/tc/star/1m": ("b8f48e0bcf5f96b1", 2),
    "GraphX/tc/star/4m": ("b8f48e0bcf5f96b1", 2),
    "GraphX/lcc/star/1m": ("37b325898be6b37e", 3),
    "GraphX/lcc/star/4m": ("37b325898be6b37e", 3),
    "GraphX/kc:k=3/star/1m": ("65938a24750448a3", 2),
    "GraphX/kc:k=3/star/4m": ("65938a24750448a3", 2),
    "GraphX/kc:k=4/star/1m": ("65938a24750448a3", 2),
    "GraphX/kc:k=4/star/4m": ("65938a24750448a3", 2),
    "GraphX/kc:k=5/star/1m": ("65938a24750448a3", 2),
    "GraphX/kc:k=5/star/4m": ("65938a24750448a3", 2),
    "Flash/tc/star/1m": ("e2ee86b852d46bc2", 2),
    "Flash/tc/star/4m": ("e2ee86b852d46bc2", 2),
    "Flash/lcc/star/1m": ("cd0a5cfc28ab84a8", 3),
    "Flash/lcc/star/4m": ("cd0a5cfc28ab84a8", 3),
    "Flash/kc:k=3/star/1m": ("20e79bf3403d8d19", 2),
    "Flash/kc:k=3/star/4m": ("20e79bf3403d8d19", 2),
    "Flash/kc:k=4/star/1m": ("20e79bf3403d8d19", 2),
    "Flash/kc:k=4/star/4m": ("20e79bf3403d8d19", 2),
    "Flash/kc:k=5/star/1m": ("20e79bf3403d8d19", 2),
    "Flash/kc:k=5/star/4m": ("20e79bf3403d8d19", 2),
    "Ligra/tc/star/1m": ("e2ee86b852d46bc2", 2),
    "Ligra/tc/star/4m": ("PlatformError", 0),
    "Ligra/lcc/star/1m": ("cd0a5cfc28ab84a8", 3),
    "Ligra/lcc/star/4m": ("PlatformError", 0),
    "Ligra/kc:k=3/star/1m": ("20e79bf3403d8d19", 2),
    "Ligra/kc:k=3/star/4m": ("PlatformError", 0),
    "Ligra/kc:k=4/star/1m": ("20e79bf3403d8d19", 2),
    "Ligra/kc:k=4/star/4m": ("PlatformError", 0),
    "Ligra/kc:k=5/star/1m": ("20e79bf3403d8d19", 2),
    "Ligra/kc:k=5/star/4m": ("PlatformError", 0),
    "PowerGraph/tc/star/1m": ("3deda6c6c3070fe9", 1),
    "PowerGraph/tc/star/4m": ("3deda6c6c3070fe9", 1),
    "PowerGraph/lcc/star/1m": ("0c17e1f26c4db895", 1),
    "PowerGraph/lcc/star/4m": ("0c17e1f26c4db895", 1),
    "PowerGraph/kc:k=3/star/1m": ("71a57d0fb28a7f1c", 2),
    "PowerGraph/kc:k=3/star/4m": ("71a57d0fb28a7f1c", 2),
    "PowerGraph/kc:k=4/star/1m": ("71a57d0fb28a7f1c", 2),
    "PowerGraph/kc:k=4/star/4m": ("71a57d0fb28a7f1c", 2),
    "PowerGraph/kc:k=5/star/1m": ("71a57d0fb28a7f1c", 2),
    "PowerGraph/kc:k=5/star/4m": ("71a57d0fb28a7f1c", 2),
    "Pregel+/tc/empty/1m": ("2b86c34f5d08cb98", 1),
    "Pregel+/tc/empty/4m": ("2b86c34f5d08cb98", 1),
    "Pregel+/lcc/empty/1m": ("f19e12a3f5189cfc", 3),
    "Pregel+/lcc/empty/4m": ("f19e12a3f5189cfc", 3),
    "Pregel+/kc:k=3/empty/1m": ("2b86c34f5d08cb98", 1),
    "Pregel+/kc:k=3/empty/4m": ("2b86c34f5d08cb98", 1),
    "Pregel+/kc:k=4/empty/1m": ("2b86c34f5d08cb98", 1),
    "Pregel+/kc:k=4/empty/4m": ("2b86c34f5d08cb98", 1),
    "Pregel+/kc:k=5/empty/1m": ("2b86c34f5d08cb98", 1),
    "Pregel+/kc:k=5/empty/4m": ("2b86c34f5d08cb98", 1),
    "GraphX/tc/empty/1m": ("2b86c34f5d08cb98", 1),
    "GraphX/tc/empty/4m": ("2b86c34f5d08cb98", 1),
    "GraphX/lcc/empty/1m": ("f19e12a3f5189cfc", 3),
    "GraphX/lcc/empty/4m": ("f19e12a3f5189cfc", 3),
    "GraphX/kc:k=3/empty/1m": ("2b86c34f5d08cb98", 1),
    "GraphX/kc:k=3/empty/4m": ("2b86c34f5d08cb98", 1),
    "GraphX/kc:k=4/empty/1m": ("2b86c34f5d08cb98", 1),
    "GraphX/kc:k=4/empty/4m": ("2b86c34f5d08cb98", 1),
    "GraphX/kc:k=5/empty/1m": ("2b86c34f5d08cb98", 1),
    "GraphX/kc:k=5/empty/4m": ("2b86c34f5d08cb98", 1),
    "Flash/tc/empty/1m": ("2b86c34f5d08cb98", 1),
    "Flash/tc/empty/4m": ("2b86c34f5d08cb98", 1),
    "Flash/lcc/empty/1m": ("f19e12a3f5189cfc", 3),
    "Flash/lcc/empty/4m": ("f19e12a3f5189cfc", 3),
    "Flash/kc:k=3/empty/1m": ("2b86c34f5d08cb98", 1),
    "Flash/kc:k=3/empty/4m": ("2b86c34f5d08cb98", 1),
    "Flash/kc:k=4/empty/1m": ("2b86c34f5d08cb98", 1),
    "Flash/kc:k=4/empty/4m": ("2b86c34f5d08cb98", 1),
    "Flash/kc:k=5/empty/1m": ("2b86c34f5d08cb98", 1),
    "Flash/kc:k=5/empty/4m": ("2b86c34f5d08cb98", 1),
    "Ligra/tc/empty/1m": ("2b86c34f5d08cb98", 1),
    "Ligra/tc/empty/4m": ("PlatformError", 0),
    "Ligra/lcc/empty/1m": ("f19e12a3f5189cfc", 3),
    "Ligra/lcc/empty/4m": ("PlatformError", 0),
    "Ligra/kc:k=3/empty/1m": ("2b86c34f5d08cb98", 1),
    "Ligra/kc:k=3/empty/4m": ("PlatformError", 0),
    "Ligra/kc:k=4/empty/1m": ("2b86c34f5d08cb98", 1),
    "Ligra/kc:k=4/empty/4m": ("PlatformError", 0),
    "Ligra/kc:k=5/empty/1m": ("2b86c34f5d08cb98", 1),
    "Ligra/kc:k=5/empty/4m": ("PlatformError", 0),
    "PowerGraph/tc/empty/1m": ("5f0915716e7e109e", 1),
    "PowerGraph/tc/empty/4m": ("5f0915716e7e109e", 1),
    "PowerGraph/lcc/empty/1m": ("b40446980b6c7e91", 1),
    "PowerGraph/lcc/empty/4m": ("b40446980b6c7e91", 1),
    "PowerGraph/kc:k=3/empty/1m": ("5f0915716e7e109e", 1),
    "PowerGraph/kc:k=3/empty/4m": ("5f0915716e7e109e", 1),
    "PowerGraph/kc:k=4/empty/1m": ("5f0915716e7e109e", 1),
    "PowerGraph/kc:k=4/empty/4m": ("5f0915716e7e109e", 1),
    "PowerGraph/kc:k=5/empty/1m": ("5f0915716e7e109e", 1),
    "PowerGraph/kc:k=5/empty/4m": ("5f0915716e7e109e", 1),
    "Pregel+/tc/loopy/1m": ("b89e41dfa66dcaeb", 2),
    "Pregel+/tc/loopy/4m": ("b89e41dfa66dcaeb", 2),
    "Pregel+/lcc/loopy/1m": ("5518519f72970fd4", 3),
    "Pregel+/lcc/loopy/4m": ("5518519f72970fd4", 3),
    "Pregel+/kc:k=3/loopy/1m": ("d49439638e6d95cb", 2),
    "Pregel+/kc:k=3/loopy/4m": ("d49439638e6d95cb", 2),
    "Pregel+/kc:k=4/loopy/1m": ("376c087db68956b7", 3),
    "Pregel+/kc:k=4/loopy/4m": ("376c087db68956b7", 3),
    "Pregel+/kc:k=5/loopy/1m": ("484a96e2c516aded", 2),
    "Pregel+/kc:k=5/loopy/4m": ("484a96e2c516aded", 2),
    "GraphX/tc/loopy/1m": ("b89e41dfa66dcaeb", 2),
    "GraphX/tc/loopy/4m": ("b89e41dfa66dcaeb", 2),
    "GraphX/lcc/loopy/1m": ("5518519f72970fd4", 3),
    "GraphX/lcc/loopy/4m": ("5518519f72970fd4", 3),
    "GraphX/kc:k=3/loopy/1m": ("d49439638e6d95cb", 2),
    "GraphX/kc:k=3/loopy/4m": ("d49439638e6d95cb", 2),
    "GraphX/kc:k=4/loopy/1m": ("376c087db68956b7", 3),
    "GraphX/kc:k=4/loopy/4m": ("376c087db68956b7", 3),
    "GraphX/kc:k=5/loopy/1m": ("484a96e2c516aded", 2),
    "GraphX/kc:k=5/loopy/4m": ("484a96e2c516aded", 2),
    "Flash/tc/loopy/1m": ("1f4a6f6d1c644853", 2),
    "Flash/tc/loopy/4m": ("1f4a6f6d1c644853", 2),
    "Flash/lcc/loopy/1m": ("964af907ee01efc2", 3),
    "Flash/lcc/loopy/4m": ("964af907ee01efc2", 3),
    "Flash/kc:k=3/loopy/1m": ("16dba50fb0c2030f", 2),
    "Flash/kc:k=3/loopy/4m": ("16dba50fb0c2030f", 2),
    "Flash/kc:k=4/loopy/1m": ("0386f78cab743cb2", 3),
    "Flash/kc:k=4/loopy/4m": ("0386f78cab743cb2", 3),
    "Flash/kc:k=5/loopy/1m": ("52e81a2bf38dd6cd", 2),
    "Flash/kc:k=5/loopy/4m": ("52e81a2bf38dd6cd", 2),
    "Ligra/tc/loopy/1m": ("1f4a6f6d1c644853", 2),
    "Ligra/tc/loopy/4m": ("PlatformError", 0),
    "Ligra/lcc/loopy/1m": ("964af907ee01efc2", 3),
    "Ligra/lcc/loopy/4m": ("PlatformError", 0),
    "Ligra/kc:k=3/loopy/1m": ("16dba50fb0c2030f", 2),
    "Ligra/kc:k=3/loopy/4m": ("PlatformError", 0),
    "Ligra/kc:k=4/loopy/1m": ("0386f78cab743cb2", 3),
    "Ligra/kc:k=4/loopy/4m": ("PlatformError", 0),
    "Ligra/kc:k=5/loopy/1m": ("52e81a2bf38dd6cd", 2),
    "Ligra/kc:k=5/loopy/4m": ("PlatformError", 0),
    "PowerGraph/tc/loopy/1m": ("4c027322bbc107d6", 1),
    "PowerGraph/tc/loopy/4m": ("4c027322bbc107d6", 1),
    "PowerGraph/lcc/loopy/1m": ("61b00623452a3af0", 1),
    "PowerGraph/lcc/loopy/4m": ("61b00623452a3af0", 1),
    "PowerGraph/kc:k=3/loopy/1m": ("90b3666d9a03abd9", 2),
    "PowerGraph/kc:k=3/loopy/4m": ("90b3666d9a03abd9", 2),
    "PowerGraph/kc:k=4/loopy/1m": ("40ce164c762dfdf0", 3),
    "PowerGraph/kc:k=4/loopy/4m": ("40ce164c762dfdf0", 3),
    "PowerGraph/kc:k=5/loopy/1m": ("c3d1b2bcd6e5d5ad", 2),
    "PowerGraph/kc:k=5/loopy/4m": ("c3d1b2bcd6e5d5ad", 2),
    "Pregel+/tc/fft/1m": ("1273d72d02e6352b", 2),
    "Pregel+/tc/fft/4m": ("1273d72d02e6352b", 2),
    "Pregel+/lcc/fft/1m": ("64615a6c14cc0153", 3),
    "Pregel+/lcc/fft/4m": ("64615a6c14cc0153", 3),
    "Pregel+/kc:k=3/fft/1m": ("fdcfdf9e065d5dda", 2),
    "Pregel+/kc:k=3/fft/4m": ("fdcfdf9e065d5dda", 2),
    "Pregel+/kc:k=4/fft/1m": ("a09399f8d1da187f", 3),
    "Pregel+/kc:k=4/fft/4m": ("a09399f8d1da187f", 3),
    "Pregel+/kc:k=5/fft/1m": ("4ed29e483a6ac6ab", 4),
    "Pregel+/kc:k=5/fft/4m": ("4ed29e483a6ac6ab", 4),
    "GraphX/tc/fft/1m": ("1273d72d02e6352b", 2),
    "GraphX/tc/fft/4m": ("1273d72d02e6352b", 2),
    "GraphX/lcc/fft/1m": ("64615a6c14cc0153", 3),
    "GraphX/lcc/fft/4m": ("64615a6c14cc0153", 3),
    "GraphX/kc:k=3/fft/1m": ("fdcfdf9e065d5dda", 2),
    "GraphX/kc:k=3/fft/4m": ("fdcfdf9e065d5dda", 2),
    "GraphX/kc:k=4/fft/1m": ("a09399f8d1da187f", 3),
    "GraphX/kc:k=4/fft/4m": ("a09399f8d1da187f", 3),
    "GraphX/kc:k=5/fft/1m": ("4ed29e483a6ac6ab", 4),
    "GraphX/kc:k=5/fft/4m": ("4ed29e483a6ac6ab", 4),
    "Flash/tc/fft/1m": ("b2f8ae4cb581afa9", 2),
    "Flash/tc/fft/4m": ("b2f8ae4cb581afa9", 2),
    "Flash/lcc/fft/1m": ("3b6a0705b7fab12e", 3),
    "Flash/lcc/fft/4m": ("3b6a0705b7fab12e", 3),
    "Flash/kc:k=3/fft/1m": ("d19ec066530d8107", 2),
    "Flash/kc:k=3/fft/4m": ("d19ec066530d8107", 2),
    "Flash/kc:k=4/fft/1m": ("fdc8b429a89e3e69", 3),
    "Flash/kc:k=4/fft/4m": ("fdc8b429a89e3e69", 3),
    "Flash/kc:k=5/fft/1m": ("82c85bdb9cc3dbfb", 4),
    "Flash/kc:k=5/fft/4m": ("82c85bdb9cc3dbfb", 4),
    "Ligra/tc/fft/1m": ("b2f8ae4cb581afa9", 2),
    "Ligra/tc/fft/4m": ("PlatformError", 0),
    "Ligra/lcc/fft/1m": ("3b6a0705b7fab12e", 3),
    "Ligra/lcc/fft/4m": ("PlatformError", 0),
    "Ligra/kc:k=3/fft/1m": ("d19ec066530d8107", 2),
    "Ligra/kc:k=3/fft/4m": ("PlatformError", 0),
    "Ligra/kc:k=4/fft/1m": ("fdc8b429a89e3e69", 3),
    "Ligra/kc:k=4/fft/4m": ("PlatformError", 0),
    "Ligra/kc:k=5/fft/1m": ("82c85bdb9cc3dbfb", 4),
    "Ligra/kc:k=5/fft/4m": ("PlatformError", 0),
    "PowerGraph/tc/fft/1m": ("031b2672ce23bbdd", 1),
    "PowerGraph/tc/fft/4m": ("031b2672ce23bbdd", 1),
    "PowerGraph/lcc/fft/1m": ("f3fcf0c9a8a7e81e", 1),
    "PowerGraph/lcc/fft/4m": ("f3fcf0c9a8a7e81e", 1),
    "PowerGraph/kc:k=3/fft/1m": ("79dc8e08e2180efd", 2),
    "PowerGraph/kc:k=3/fft/4m": ("79dc8e08e2180efd", 2),
    "PowerGraph/kc:k=4/fft/1m": ("76cedc7772adfe44", 3),
    "PowerGraph/kc:k=4/fft/4m": ("76cedc7772adfe44", 3),
    "PowerGraph/kc:k=5/fft/1m": ("aa13af4b93d2172c", 4),
    "PowerGraph/kc:k=5/fft/4m": ("aa13af4b93d2172c", 4),
}


def test_pins_cover_every_case():
    assert sorted(PINS) == sorted(key for key, _ in cases())


@pytest.mark.parametrize("key,case", cases(), ids=[k for k, _ in cases()])
def test_census_metering_pinned(key, case):
    assert record(*case) == PINS[key]


#: forced-mode sample: every platform and run on two graphs, 1 machine
MODE_CASES = [
    (key, case) for key, case in cases()
    if case[3] in ("random", "loopy") and case[4] == "1m"
]


@pytest.mark.parametrize("mode", ["scalar", "bulk"])
@pytest.mark.parametrize("key,case", MODE_CASES,
                         ids=[k for k, _ in MODE_CASES])
def test_engine_mode_ignored(key, case, mode):
    """TC, KC and LCC have one path; a forced mode changes nothing."""
    assert record(*case, engine_mode=mode) == PINS[key]

"""Pinned metering of the vertex-centric bulk routes and the stream.

Every bulk vertex program delivers its messages through one of two
routes: the raw route (GraphX, Flash, Ligra) and the combining route
(Pregel+).  ``StreamingSession`` resumes the same engine window by
window.  The records below were taken while neighbour broadcasts were
still metered one part-pair id per edge, before they were charged from
a per-vertex out-part histogram; the histogram form must keep producing
them.

A record holds a SHA-256 prefix over the values and every superstep's
``ops``, ``msg_count`` and ``msg_bytes`` arrays, plus the superstep
count (summed over the windows of a stream).

The cluster never reaches the trace, so each ``1m`` record equals its
``4m`` twin; both are kept so a future cluster-dependent engine shows up
here.  Ligra is shared-memory and runs on ``1m`` only.
"""

import hashlib

import numpy as np
import pytest

from repro.cluster import scale_out, single_machine
from repro.core import Graph, random_graph
from repro.datagen import generate_fft, uniform_weights
from repro.datagen.dynamic import generate_stream
from repro.platforms import get_platform
from repro.platforms.profile import get_profile
from repro.platforms.vertex_centric import streaming


def _loopy_graph() -> Graph:
    """Two triangles joined by a path, self-loops on 0 and 5, and
    isolated vertices 9-11."""
    return Graph.from_edges(
        [0, 1, 0, 2, 3, 4, 5, 4, 6, 0, 5, 7],
        [1, 2, 2, 3, 4, 5, 6, 6, 7, 0, 5, 8],
        num_vertices=12, directed=False, drop_self_loops=False,
    )


GRAPHS = {
    "random": lambda: random_graph(200, 900, seed=13),
    "loopy": _loopy_graph,
    "weighted": lambda: uniform_weights(random_graph(150, 500, seed=4), seed=2),
    "directed": lambda: random_graph(120, 600, seed=8, directed=True),
    "fft": lambda: generate_fft(300, seed=3).graph,
}

CLUSTERS = {"1m": single_machine(), "4m": scale_out(4)}

PLATFORMS = ("GraphX", "Flash", "Ligra", "Pregel+")
ALGORITHMS = ("pr", "sssp", "wcc", "lpa", "cd")

#: (stream name) -> generate_stream arguments
STREAMS = {
    "s400": dict(num_vertices=400, edges_per_batch=40, bulk_load=0.9, seed=5),
    "s300": dict(num_vertices=300, edges_per_batch=25, bulk_load=0.8, seed=2),
}
STREAM_ALGORITHMS = ("pr", "sssp", "wcc")
STREAM_PROFILES = ("Flash", "Pregel+")
STREAM_PARTS = (16, 3)
STREAM_WINDOWS = 4

_GRAPH_CACHE: dict[str, Graph] = {}


def _graph(name: str) -> Graph:
    if name not in _GRAPH_CACHE:
        _GRAPH_CACHE[name] = GRAPHS[name]()
    return _GRAPH_CACHE[name]


def _digest(digest, values, traces) -> None:
    values = np.asarray(values)
    digest.update(values.dtype.str.encode())
    digest.update(np.ascontiguousarray(values).tobytes())
    for trace in traces:
        for step in trace.steps:
            for arr in (step.ops, step.msg_count, step.msg_bytes):
                digest.update(
                    np.ascontiguousarray(arr, dtype=np.float64).tobytes()
                )


def platform_cases() -> list[tuple[str, tuple]]:
    out = []
    for graph_name in GRAPHS:
        for platform in PLATFORMS:
            plat = get_platform(platform)
            for algorithm in ALGORITHMS:
                if algorithm not in plat.algorithms():
                    continue
                for cluster in CLUSTERS:
                    if (plat.profile.single_machine_only
                            and CLUSTERS[cluster].machines > 1):
                        continue
                    key = f"{platform}/{algorithm}/{graph_name}/{cluster}"
                    out.append((key, (platform, algorithm, graph_name,
                                      cluster)))
    return out


def stream_cases() -> list[tuple[str, tuple]]:
    out = []
    for stream in STREAMS:
        for profile in STREAM_PROFILES:
            for algorithm in STREAM_ALGORITHMS:
                for parts in STREAM_PARTS:
                    key = f"stream/{profile}/{algorithm}/{stream}/p{parts}"
                    out.append((key, (profile, algorithm, stream, parts)))
    return out


def platform_record(platform: str, algorithm: str, graph_name: str,
                    cluster: str) -> tuple[str, int]:
    run = get_platform(platform).run(
        algorithm, _graph(graph_name), CLUSTERS[cluster]
    )
    digest = hashlib.sha256()
    _digest(digest, run.values, [run.trace])
    return digest.hexdigest()[:16], run.trace.supersteps


def stream_record(profile: str, algorithm: str, stream_name: str,
                  parts: int, monkeypatch) -> tuple[str, int]:
    """PEval plus ``STREAM_WINDOWS - 1`` IncEval windows; every window's
    recorder (the ingest superstep included) goes into the digest."""
    recorders = []

    class Recorder(streaming.TraceRecorder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            recorders.append(self)

    monkeypatch.setattr(streaming, "TraceRecorder", Recorder)
    stream = generate_stream(**STREAMS[stream_name])
    session = streaming.StreamingSession(
        stream.num_vertices, algorithm,
        profile=get_profile(profile), parts=parts,
    )
    for t in range(STREAM_WINDOWS):
        session.process_window(stream.batches[t])
    traces = [r.trace for r in recorders]
    digest = hashlib.sha256()
    _digest(digest, session.values(), traces)
    return digest.hexdigest()[:16], sum(t.supersteps for t in traces)


#: key -> (digest prefix, supersteps)
PINS = {
    "GraphX/pr/random/1m": ('a990a16e3ca835b9', 11),
    "GraphX/pr/random/4m": ('a990a16e3ca835b9', 11),
    "GraphX/sssp/random/1m": ('f3d0e63b5479aa37', 6),
    "GraphX/sssp/random/4m": ('f3d0e63b5479aa37', 6),
    "GraphX/wcc/random/1m": ('f1a23c4110592815', 6),
    "GraphX/wcc/random/4m": ('f1a23c4110592815', 6),
    "GraphX/lpa/random/1m": ('0bb7528f8f5f5f8d', 9),
    "GraphX/lpa/random/4m": ('0bb7528f8f5f5f8d', 9),
    "GraphX/cd/random/1m": ('8169d872ed7bb40f', 22),
    "GraphX/cd/random/4m": ('8169d872ed7bb40f', 22),
    "Flash/pr/random/1m": ('70d994390384dde6', 11),
    "Flash/pr/random/4m": ('70d994390384dde6', 11),
    "Flash/sssp/random/1m": ('eac123af64d839d7', 6),
    "Flash/sssp/random/4m": ('eac123af64d839d7', 6),
    "Flash/wcc/random/1m": ('cc6af2a46c319350', 7),
    "Flash/wcc/random/4m": ('cc6af2a46c319350', 7),
    "Flash/lpa/random/1m": ('de1d56d900db15c6', 9),
    "Flash/lpa/random/4m": ('de1d56d900db15c6', 9),
    "Flash/cd/random/1m": ('3ae039ec68f428d4', 22),
    "Flash/cd/random/4m": ('3ae039ec68f428d4', 22),
    "Ligra/pr/random/1m": ('70d994390384dde6', 11),
    "Ligra/sssp/random/1m": ('eac123af64d839d7', 6),
    "Ligra/wcc/random/1m": ('33d0d1a03e08e5ee', 6),
    "Ligra/lpa/random/1m": ('d7a8c2865e77dc93', 9),
    "Ligra/cd/random/1m": ('3ae039ec68f428d4', 22),
    "Pregel+/pr/random/1m": ('4e60188e5ca15246', 11),
    "Pregel+/pr/random/4m": ('4e60188e5ca15246', 11),
    "Pregel+/sssp/random/1m": ('9a517606b9e77eac', 6),
    "Pregel+/sssp/random/4m": ('9a517606b9e77eac', 6),
    "Pregel+/wcc/random/1m": ('3c9fd9b5a1411a5c', 7),
    "Pregel+/wcc/random/4m": ('3c9fd9b5a1411a5c', 7),
    "Pregel+/lpa/random/1m": ('de1d56d900db15c6', 9),
    "Pregel+/lpa/random/4m": ('de1d56d900db15c6', 9),
    "GraphX/pr/loopy/1m": ('006920f04c724284', 11),
    "GraphX/pr/loopy/4m": ('006920f04c724284', 11),
    "GraphX/sssp/loopy/1m": ('b3e725bf16fa2b48', 8),
    "GraphX/sssp/loopy/4m": ('b3e725bf16fa2b48', 8),
    "GraphX/wcc/loopy/1m": ('1b55c5d3d4d171a5', 8),
    "GraphX/wcc/loopy/4m": ('1b55c5d3d4d171a5', 8),
    "GraphX/lpa/loopy/1m": ('ebce905aadfe66f4', 11),
    "GraphX/lpa/loopy/4m": ('ebce905aadfe66f4', 11),
    "GraphX/cd/loopy/1m": ('3ade2f42d4160d01', 8),
    "GraphX/cd/loopy/4m": ('3ade2f42d4160d01', 8),
    "Flash/pr/loopy/1m": ('db2d79ca1ba76ab4', 11),
    "Flash/pr/loopy/4m": ('db2d79ca1ba76ab4', 11),
    "Flash/sssp/loopy/1m": ('95bad0a3f445c9e6', 8),
    "Flash/sssp/loopy/4m": ('95bad0a3f445c9e6', 8),
    "Flash/wcc/loopy/1m": ('9db05c437badc6b4', 8),
    "Flash/wcc/loopy/4m": ('9db05c437badc6b4', 8),
    "Flash/lpa/loopy/1m": ('150ca0448e9ea16d', 11),
    "Flash/lpa/loopy/4m": ('150ca0448e9ea16d', 11),
    "Flash/cd/loopy/1m": ('f581e79ab1561260', 1),
    "Flash/cd/loopy/4m": ('f581e79ab1561260', 1),
    "Ligra/pr/loopy/1m": ('db2d79ca1ba76ab4', 11),
    "Ligra/sssp/loopy/1m": ('95bad0a3f445c9e6', 8),
    "Ligra/wcc/loopy/1m": ('8998bf770175fecb', 8),
    "Ligra/lpa/loopy/1m": ('cf509bb8cebf2e04', 11),
    "Ligra/cd/loopy/1m": ('f581e79ab1561260', 1),
    "Pregel+/pr/loopy/1m": ('c0576badd3714d17', 11),
    "Pregel+/pr/loopy/4m": ('c0576badd3714d17', 11),
    "Pregel+/sssp/loopy/1m": ('a9785157beee234c', 8),
    "Pregel+/sssp/loopy/4m": ('a9785157beee234c', 8),
    "Pregel+/wcc/loopy/1m": ('2b68df5649bd1f38', 8),
    "Pregel+/wcc/loopy/4m": ('2b68df5649bd1f38', 8),
    "Pregel+/lpa/loopy/1m": ('150ca0448e9ea16d', 11),
    "Pregel+/lpa/loopy/4m": ('150ca0448e9ea16d', 11),
    "GraphX/pr/weighted/1m": ('db97d20c1e037ea1', 11),
    "GraphX/pr/weighted/4m": ('db97d20c1e037ea1', 11),
    "GraphX/sssp/weighted/1m": ('1f9c37debfe87a38', 9),
    "GraphX/sssp/weighted/4m": ('1f9c37debfe87a38', 9),
    "GraphX/wcc/weighted/1m": ('99553b1a6845be77', 6),
    "GraphX/wcc/weighted/4m": ('99553b1a6845be77', 6),
    "GraphX/lpa/weighted/1m": ('20a0ed05fc312255', 9),
    "GraphX/lpa/weighted/4m": ('20a0ed05fc312255', 9),
    "GraphX/cd/weighted/1m": ('5a9d3f07b7a1da40', 25),
    "GraphX/cd/weighted/4m": ('5a9d3f07b7a1da40', 25),
    "Flash/pr/weighted/1m": ('16fa89f7d3df169d', 11),
    "Flash/pr/weighted/4m": ('16fa89f7d3df169d', 11),
    "Flash/sssp/weighted/1m": ('5f8275223725e3e6', 9),
    "Flash/sssp/weighted/4m": ('5f8275223725e3e6', 9),
    "Flash/wcc/weighted/1m": ('1bd0e230d5c8c3f4', 7),
    "Flash/wcc/weighted/4m": ('1bd0e230d5c8c3f4', 7),
    "Flash/lpa/weighted/1m": ('d59068b4e2dc4589', 9),
    "Flash/lpa/weighted/4m": ('d59068b4e2dc4589', 9),
    "Flash/cd/weighted/1m": ('0fe4264d039d9fa1', 25),
    "Flash/cd/weighted/4m": ('0fe4264d039d9fa1', 25),
    "Ligra/pr/weighted/1m": ('16fa89f7d3df169d', 11),
    "Ligra/sssp/weighted/1m": ('5f8275223725e3e6', 9),
    "Ligra/wcc/weighted/1m": ('d81f602c7963487c', 6),
    "Ligra/lpa/weighted/1m": ('18978724012f5b39', 9),
    "Ligra/cd/weighted/1m": ('0fe4264d039d9fa1', 25),
    "Pregel+/pr/weighted/1m": ('227bfbcb7967c822', 11),
    "Pregel+/pr/weighted/4m": ('227bfbcb7967c822', 11),
    "Pregel+/sssp/weighted/1m": ('22276620e9df560d', 9),
    "Pregel+/sssp/weighted/4m": ('22276620e9df560d', 9),
    "Pregel+/wcc/weighted/1m": ('f2b43600086a2be8', 7),
    "Pregel+/wcc/weighted/4m": ('f2b43600086a2be8', 7),
    "Pregel+/lpa/weighted/1m": ('d59068b4e2dc4589', 9),
    "Pregel+/lpa/weighted/4m": ('d59068b4e2dc4589', 9),
    "GraphX/pr/directed/1m": ('00daa7c008b44015', 11),
    "GraphX/pr/directed/4m": ('00daa7c008b44015', 11),
    "GraphX/sssp/directed/1m": ('f4c176bba6bcabb3', 8),
    "GraphX/sssp/directed/4m": ('f4c176bba6bcabb3', 8),
    "GraphX/wcc/directed/1m": ('507574508f6ae5db', 8),
    "GraphX/wcc/directed/4m": ('507574508f6ae5db', 8),
    "GraphX/lpa/directed/1m": ('ae9659069215cac5', 11),
    "GraphX/lpa/directed/4m": ('ae9659069215cac5', 11),
    "GraphX/cd/directed/1m": ('16705c474a8e5000', 25),
    "GraphX/cd/directed/4m": ('16705c474a8e5000', 25),
    "Flash/pr/directed/1m": ('cafebd4cecff5058', 11),
    "Flash/pr/directed/4m": ('cafebd4cecff5058', 11),
    "Flash/sssp/directed/1m": ('8aa5d394378c8e60', 8),
    "Flash/sssp/directed/4m": ('8aa5d394378c8e60', 8),
    "Flash/wcc/directed/1m": ('422a58b2782e5d5b', 9),
    "Flash/wcc/directed/4m": ('422a58b2782e5d5b', 9),
    "Flash/lpa/directed/1m": ('7d5d392292f63433', 11),
    "Flash/lpa/directed/4m": ('7d5d392292f63433', 11),
    "Flash/cd/directed/1m": ('ec531dd161ea7832', 25),
    "Flash/cd/directed/4m": ('ec531dd161ea7832', 25),
    "Ligra/pr/directed/1m": ('cafebd4cecff5058', 11),
    "Ligra/sssp/directed/1m": ('8aa5d394378c8e60', 8),
    "Ligra/wcc/directed/1m": ('3f8c2ef02815ecbe', 8),
    "Ligra/lpa/directed/1m": ('3d357e2b1eddd45c', 11),
    "Ligra/cd/directed/1m": ('ec531dd161ea7832', 25),
    "Pregel+/pr/directed/1m": ('5ba92a66cefe1c2d', 11),
    "Pregel+/pr/directed/4m": ('5ba92a66cefe1c2d', 11),
    "Pregel+/sssp/directed/1m": ('1f2505a6274c59b8', 8),
    "Pregel+/sssp/directed/4m": ('1f2505a6274c59b8', 8),
    "Pregel+/wcc/directed/1m": ('ccdfad93ea4b37e7', 9),
    "Pregel+/wcc/directed/4m": ('ccdfad93ea4b37e7', 9),
    "Pregel+/lpa/directed/1m": ('7d5d392292f63433', 11),
    "Pregel+/lpa/directed/4m": ('7d5d392292f63433', 11),
    "GraphX/pr/fft/1m": ('407330f2d5c873b6', 11),
    "GraphX/pr/fft/4m": ('407330f2d5c873b6', 11),
    "GraphX/sssp/fft/1m": ('c934fc3d7cfbb99e', 5),
    "GraphX/sssp/fft/4m": ('c934fc3d7cfbb99e', 5),
    "GraphX/wcc/fft/1m": ('db9b3b70d97eb0aa', 5),
    "GraphX/wcc/fft/4m": ('db9b3b70d97eb0aa', 5),
    "GraphX/lpa/fft/1m": ('f5d680863ffb944c', 11),
    "GraphX/lpa/fft/4m": ('f5d680863ffb944c', 11),
    "GraphX/cd/fft/1m": ('1ecdbe8628275e6c', 50),
    "GraphX/cd/fft/4m": ('1ecdbe8628275e6c', 50),
    "Flash/pr/fft/1m": ('8d4ddd869df0d489', 11),
    "Flash/pr/fft/4m": ('8d4ddd869df0d489', 11),
    "Flash/sssp/fft/1m": ('8fe3bc551e33bcab', 5),
    "Flash/sssp/fft/4m": ('8fe3bc551e33bcab', 5),
    "Flash/wcc/fft/1m": ('d762071a78e7708c', 6),
    "Flash/wcc/fft/4m": ('d762071a78e7708c', 6),
    "Flash/lpa/fft/1m": ('331321f4861d7bab', 11),
    "Flash/lpa/fft/4m": ('331321f4861d7bab', 11),
    "Flash/cd/fft/1m": ('d0f1dbefec6f21e3', 50),
    "Flash/cd/fft/4m": ('d0f1dbefec6f21e3', 50),
    "Ligra/pr/fft/1m": ('8d4ddd869df0d489', 11),
    "Ligra/sssp/fft/1m": ('8fe3bc551e33bcab', 5),
    "Ligra/wcc/fft/1m": ('7303164cb2e84459', 5),
    "Ligra/lpa/fft/1m": ('51540607e8daa5f5', 11),
    "Ligra/cd/fft/1m": ('d0f1dbefec6f21e3', 50),
    "Pregel+/pr/fft/1m": ('6f96f4576cda1d5e', 11),
    "Pregel+/pr/fft/4m": ('6f96f4576cda1d5e', 11),
    "Pregel+/sssp/fft/1m": ('404cc11f38ea34a4', 5),
    "Pregel+/sssp/fft/4m": ('404cc11f38ea34a4', 5),
    "Pregel+/wcc/fft/1m": ('23ad33201cde36c7', 6),
    "Pregel+/wcc/fft/4m": ('23ad33201cde36c7', 6),
    "Pregel+/lpa/fft/1m": ('331321f4861d7bab', 11),
    "Pregel+/lpa/fft/4m": ('331321f4861d7bab', 11),
    "stream/Flash/pr/s400/p16": ('d36839798830cf7f', 309),
    "stream/Flash/pr/s400/p3": ('8b0c208e0c997358', 309),
    "stream/Flash/sssp/s400/p16": ('4a0c4ec926ad39ad', 11),
    "stream/Flash/sssp/s400/p3": ('8e14f2389df4ca81', 11),
    "stream/Flash/wcc/s400/p16": ('cef458cbdb8dd7ed', 5),
    "stream/Flash/wcc/s400/p3": ('26843a5250ca9a4a', 5),
    "stream/Pregel+/pr/s400/p16": ('b97656008c4f7378', 309),
    "stream/Pregel+/pr/s400/p3": ('14cf215ee98d56a6', 309),
    "stream/Pregel+/sssp/s400/p16": ('39caeb809bfebd8c', 11),
    "stream/Pregel+/sssp/s400/p3": ('a87da46600b9711e', 11),
    "stream/Pregel+/wcc/s400/p16": ('7ca44c10946f728d', 5),
    "stream/Pregel+/wcc/s400/p3": ('9b1efabff2912e66', 5),
    "stream/Flash/pr/s300/p16": ('c4abf83757adc2ef', 277),
    "stream/Flash/pr/s300/p3": ('7a5e63ca259820fc', 277),
    "stream/Flash/sssp/s300/p16": ('355582caf4313e97', 5),
    "stream/Flash/sssp/s300/p3": ('644922307c8f8120', 5),
    "stream/Flash/wcc/s300/p16": ('7fe363a87e5adbf9', 5),
    "stream/Flash/wcc/s300/p3": ('22438322bb3bb69a', 5),
    "stream/Pregel+/pr/s300/p16": ('5dd25f55332f8eb2', 277),
    "stream/Pregel+/pr/s300/p3": ('f08dc3d7f9ada3bc', 277),
    "stream/Pregel+/sssp/s300/p16": ('06b0e218626e8aea', 5),
    "stream/Pregel+/sssp/s300/p3": ('01fb720a8adb08c2', 5),
    "stream/Pregel+/wcc/s300/p16": ('bf5ca45af82ea160', 5),
    "stream/Pregel+/wcc/s300/p3": ('f69b33d46c719b71', 5),
}


PLATFORM_CASES = platform_cases()
STREAM_CASES = stream_cases()


def test_pins_cover_every_case():
    keys = [key for key, _ in PLATFORM_CASES + STREAM_CASES]
    assert keys == list(PINS)
    assert len(PINS) == 189


@pytest.mark.parametrize("key,case", PLATFORM_CASES,
                         ids=[k for k, _ in PLATFORM_CASES])
def test_platform_metering_pinned(key, case):
    assert platform_record(*case) == PINS[key]


@pytest.mark.parametrize("key,case", STREAM_CASES,
                         ids=[k for k, _ in STREAM_CASES])
def test_stream_metering_pinned(key, case, monkeypatch):
    assert stream_record(*case, monkeypatch) == PINS[key]

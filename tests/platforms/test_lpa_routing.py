"""Every bulk LPA runs on :func:`repro.platforms.kernels.segmented_mode`.

Grape's ``lpa_blocks`` has no scalar twin and no parity suite, so these
tests guard the four routed forms twice: labels must equal the
reference ``label_propagation`` exactly (LDBC Graphalytics' CDLP rule),
and the metered WorkTrace totals must equal literal values recorded
before the forms shared the kernel.
"""

import numpy as np
import pytest

from repro.algorithms.reference.lpa import label_propagation
from repro.cluster import scale_out, single_machine
from repro.core import Graph
from repro.datagen import generate_fft
from repro.datagen.dynamic import generate_stream
from repro.platforms import get_platform
from repro.platforms.vertex_centric import streaming

PLATFORMS = ("Grape", "GraphX", "PowerGraph")


def _star_bridged_to_cliques() -> Graph:
    """Star 0..6 bridged to two K4s, self-loops on 0 and 8, 15-16 isolated.

    The star's leaves each see one label, the hub sees a six-way tie, and
    every clique vertex starts in a four-way tie.
    """
    edges = [(0, leaf) for leaf in range(1, 7)]
    for clique in ((7, 8, 9, 10), (11, 12, 13, 14)):
        edges += [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]]
    edges += [(1, 7), (2, 11), (0, 0), (8, 8)]
    src, dst = zip(*edges)
    return Graph.from_edges(
        src, dst, num_vertices=17, directed=False, drop_self_loops=False
    )


@pytest.mark.parametrize("platform", PLATFORMS)
def test_bulk_lpa_equals_reference(platform):
    graph = _star_bridged_to_cliques()
    run = get_platform(platform).run("lpa", graph, single_machine())
    assert np.array_equal(np.asarray(run.values), label_propagation(graph))


def _totals(trace):
    return (trace.supersteps, trace.total_ops, trace.total_messages,
            trace.total_message_bytes)


#: (supersteps, ops, messages, message bytes) on generate_fft(300, seed=3)
PINNED_TOTALS = {
    "Grape": (10, 92200.0, 61140, 489120.0),
    "GraphX": (11, 648700.0, 92500, 740000.0),
    "PowerGraph": (10, 95200.0, 16420, 394080.0),
}


@pytest.fixture(scope="module")
def fft_graph():
    return generate_fft(300, seed=3).graph


@pytest.mark.parametrize("platform", PLATFORMS)
@pytest.mark.parametrize("cluster", [single_machine(), scale_out(4)],
                         ids=["1m", "4m"])
def test_lpa_worktrace_pinned(platform, cluster, fft_graph):
    run = get_platform(platform).run("lpa", fft_graph, cluster)
    assert _totals(run.trace) == PINNED_TOTALS[platform]


def test_streaming_lpa_worktrace_pinned(monkeypatch):
    """PEval plus three IncEval windows, one trace per window."""
    recorders = []

    class Recorder(streaming.TraceRecorder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            recorders.append(self)

    monkeypatch.setattr(streaming, "TraceRecorder", Recorder)
    stream = generate_stream(400, edges_per_batch=40, bulk_load=0.9, seed=5)
    session = streaming.StreamingSession(400, "lpa")
    for t in range(4):
        session.process_window(stream.batches[t])
    assert [_totals(r.trace) for r in recorders] == [
        (6, 91440.0, 150, 1200.0),
        (1, 3369.0, 0, 0.0),
        (1, 3309.0, 0, 0.0),
        (1, 3418.0, 0, 0.0),
    ]

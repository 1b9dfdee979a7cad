"""Tests for the memory model: OOM boundaries and the paper's
exclusion patterns."""

import pytest

from repro.cluster import ClusterSpec, single_machine
from repro.core import Graph, random_graph, star_graph
from repro.datagen import build_dataset, generate_fft
from repro.errors import OutOfMemoryError
from repro.platforms import get_platform
from repro.platforms.common import adjacency_shipping_bytes


def test_subgraph_working_set_exceeds_graph_bytes():
    g = build_dataset("S8-Std").graph
    gx = get_platform("GraphX")
    assert gx._working_set_extra_bytes("tc", g) > 0
    assert gx._working_set_extra_bytes("kc", g) > \
        gx._working_set_extra_bytes("tc", g)
    assert gx._working_set_extra_bytes("pr", g) == 0.0


@pytest.mark.parametrize("graph,expected", [
    (random_graph(200, 900, seed=13), (37704.0, 14192.0)),
    (random_graph(300, 1500, seed=5, directed=True), (67768.0, 23536.0)),
    (star_graph(9), (64.0, 128.0)),
    (Graph.from_edges([], [], num_vertices=8, directed=False), (0.0, 0.0)),
    (Graph.from_edges([0, 1, 0, 0, 2, 3], [1, 2, 2, 0, 2, 4], num_vertices=7,
                      directed=False, drop_self_loops=False), (48.0, 64.0)),
    (generate_fft(3000, seed=3).graph, (16752192.0, 1164800.0)),
], ids=["random", "directed", "star", "empty", "self-loops", "fft"])
def test_adjacency_shipping_bytes_pinned(graph, expected):
    """``(8 * sum(fdeg^2), 16 * sum(fdeg))`` over the forward orientation,
    recorded from the per-vertex loop it replaced."""
    assert adjacency_shipping_bytes(graph, envelope_bytes=16.0) == expected


def test_streaming_models_need_no_extra():
    g = build_dataset("S8-Std").graph
    assert get_platform("Grape")._working_set_extra_bytes("tc", g) == 0.0
    assert get_platform("G-thinker")._working_set_extra_bytes("tc", g) == 0.0


def test_vertex_subset_platforms_stream_buffers():
    g = build_dataset("S8-Std").graph
    flash = get_platform("Flash")._working_set_extra_bytes("tc", g)
    pregel = get_platform("Pregel+")._working_set_extra_bytes("tc", g)
    assert flash < pregel


def test_s9_tc_oom_pattern():
    """Table 11's missing TC rows: GraphX, PowerGraph, and Pregel+ cannot
    start the S9 TC sweep on one machine; Flash, Grape, G-thinker can."""
    g = build_dataset("S9-Std").graph
    one = single_machine(32)
    for name in ("GraphX", "PowerGraph", "Pregel+"):
        with pytest.raises(OutOfMemoryError):
            get_platform(name).check_capacity("tc", g, one)
    for name in ("Flash", "Grape", "G-thinker"):
        get_platform(name).check_capacity("tc", g, one)


def test_oom_message_is_informative():
    g = build_dataset("S9-Std").graph
    with pytest.raises(OutOfMemoryError, match="GraphX/tc"):
        get_platform("GraphX").check_capacity("tc", g, single_machine(32))


def test_more_machines_lift_oom():
    g = build_dataset("S9-Std").graph
    gx = get_platform("GraphX")
    cluster16 = ClusterSpec(machines=16, threads_per_machine=32)
    gx.check_capacity("pr", g, cluster16)  # plenty of aggregate memory


def test_stress_boundaries():
    """The stress experiment's headline: GraphX and Ligra cap at S9.5."""
    s10 = build_dataset("S10-Std").graph
    tight = ClusterSpec(machines=16, threads_per_machine=32,
                        memory_per_machine_bytes=16 * 1024 * 1024)
    with pytest.raises(OutOfMemoryError):
        get_platform("GraphX").check_capacity("pr", s10, tight)
    get_platform("Grape").check_capacity("pr", s10, tight)
    ligra_box = ClusterSpec(machines=1, threads_per_machine=32,
                            memory_per_machine_bytes=16 * 1024 * 1024)
    with pytest.raises(OutOfMemoryError):
        get_platform("Ligra").check_capacity("pr", s10, ligra_box)

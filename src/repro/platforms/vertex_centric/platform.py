"""Vertex-centric platform family: GraphX, Pregel+, Flash, Ligra.

One engine, four personalities.  The profile's feature flags choose
between algorithm variants exactly as the paper describes: pointer-
jumping WCC needs global messaging (Flash, Pregel+), subset-driven CD
needs vertex subsets (Flash, Ligra), and GraphX's LPA pays the
hash-merge penalty through its high per-message CPU cost.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.cost import NUM_PARTS, TraceRecorder
from repro.core.graph import Graph
from repro.core.partition import hash_partition
from repro.platforms.base import Platform
from repro.platforms.common import EngineOptions, subgraph_buffer_bytes
from repro.platforms.profile import PlatformProfile
from repro.platforms.vertex_centric.engine import VertexCentricEngine
from repro.platforms.vertex_centric.programs import (
    BCBackwardProgram,
    BCForwardProgram,
    CoreDecompositionProgram,
    KCliqueProgram,
    LabelPropagationProgram,
    PageRankProgram,
    SSSPProgram,
    TriangleCountProgram,
    WCCHashMinProgram,
    WCCPointerJumpProgram,
)

__all__ = ["VertexCentricPlatform"]


class VertexCentricPlatform(Platform):
    """A platform executing on the Pregel-style vertex-centric engine.

    ``unsupported`` lists algorithms the concrete platform cannot express
    (Pregel+ cannot manage the cross-superstep coreness state CD needs,
    Section 8.2).
    """

    def __init__(
        self,
        profile: PlatformProfile,
        *,
        unsupported: tuple[str, ...] = (),
    ) -> None:
        super().__init__(profile)
        self._unsupported = frozenset(unsupported)

    def algorithms(self) -> list[str]:
        """The eight core algorithms minus this platform's gaps."""
        return [
            a for a in ("pr", "lpa", "sssp", "wcc", "bc", "cd", "tc", "kc")
            if a not in self._unsupported
        ]

    def extended_algorithms(self) -> list[str]:
        """LDBC's remaining algorithms, for the suite comparison."""
        return ["bfs", "lcc"]

    def _working_set_extra_bytes(self, algorithm: str, graph: Graph) -> float:
        """TC/KC adjacency-shipping buffers
        (:func:`~repro.platforms.common.subgraph_buffer_bytes`)."""
        return subgraph_buffer_bytes(self.profile, algorithm, graph)

    def _execute(
        self,
        algorithm: str,
        graph: Graph,
        recorder: TraceRecorder,
        params: dict,
        options: EngineOptions,
    ) -> Any:
        partition = hash_partition(graph, NUM_PARTS)
        # AUTO routes bulk-capable programs (PR/LPA/SSSP/WCC-HashMin)
        # through the vectorized bulk-frontier path; SCALAR/BULK force
        # one path (the parity tests diff the two).
        engine = VertexCentricEngine(
            graph, partition, recorder, self.profile, mode=options.mode.value
        )
        profile = self.profile

        if algorithm == "pr":
            program = PageRankProgram(
                damping=params.get("damping", 0.85),
                iterations=params.get("iterations", 10),
            )
            engine.run(program)
            return program.ranks

        if algorithm == "lpa":
            program = LabelPropagationProgram(
                iterations=params.get("iterations", 10),
                hash_merge_factor=profile.cost.per_message_cpu_ops,
            )
            engine.run(program)
            return program.labels

        if algorithm == "sssp":
            program = SSSPProgram(source=params.get("source", 0))
            engine.run(program, max_supersteps=graph.num_vertices + 2)
            return program.dist

        if algorithm == "wcc":
            wcc_program: WCCHashMinProgram | WCCPointerJumpProgram
            if profile.global_messaging:
                wcc_program = WCCPointerJumpProgram()
            else:
                wcc_program = WCCHashMinProgram()
            engine.run(wcc_program, max_supersteps=graph.num_vertices + 2)
            return wcc_program.labels

        if algorithm == "bc":
            source = params.get("source", 0)
            forward = BCForwardProgram(source=source)
            engine.run(forward, max_supersteps=graph.num_vertices + 2)
            backward = BCBackwardProgram(forward)
            engine.run(backward)
            delta = backward.delta.copy()
            delta[source] = 0.0
            return delta

        if algorithm == "cd":
            program = CoreDecompositionProgram(use_subset=profile.vertex_subset)
            engine.run(
                program,
                max_supersteps=4 * graph.num_vertices + 16,
            )
            return program.coreness

        if algorithm == "tc":
            tc_program = TriangleCountProgram()
            engine.run(tc_program)
            return tc_program.total

        if algorithm == "kc":
            kc_program = KCliqueProgram(k=params.get("k", 4))
            engine.run(kc_program)
            return kc_program.total

        if algorithm == "bfs":
            from repro.platforms.vertex_centric.extended import BFSProgram

            bfs_program = BFSProgram(source=params.get("source", 0))
            engine.run(bfs_program, max_supersteps=graph.num_vertices + 2)
            return bfs_program.levels

        if algorithm == "lcc":
            from repro.platforms.vertex_centric.extended import LCCProgram

            lcc_program = LCCProgram()
            engine.run(lcc_program)
            return lcc_program.lcc

        raise AssertionError(f"unhandled algorithm {algorithm!r}")

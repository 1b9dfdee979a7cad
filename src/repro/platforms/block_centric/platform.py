"""Grape: the block-centric platform."""

from __future__ import annotations

from typing import Any

from repro.cluster.cost import TraceRecorder
from repro.core.graph import Graph
from repro.platforms.base import Platform
from repro.platforms.block_centric.algorithms import (
    bc_blocks,
    bfs_blocks,
    lcc_blocks,
    cd_blocks,
    kc_blocks,
    lpa_blocks,
    pagerank_blocks,
    sssp_blocks,
    tc_blocks,
    wcc_blocks,
)
from repro.obs import get_tracer
from repro.platforms.block_centric.engine import BlockCentricEngine
from repro.platforms.common import EngineOptions
from repro.platforms.profile import PlatformProfile

__all__ = ["BlockCentricPlatform"]


class BlockCentricPlatform(Platform):
    """Grape personality on the PEval/IncEval block engine."""

    def __init__(self, profile: PlatformProfile) -> None:
        super().__init__(profile)

    def algorithms(self) -> list[str]:
        """Grape supports all eight core algorithms (Fig. 10)."""
        return ["pr", "lpa", "sssp", "wcc", "bc", "cd", "tc", "kc"]

    def extended_algorithms(self) -> list[str]:
        """LDBC's remaining algorithms, for the suite comparison."""
        return ["bfs", "lcc"]

    def _execute(
        self,
        algorithm: str,
        graph: Graph,
        recorder: TraceRecorder,
        params: dict,
        options: EngineOptions,
    ) -> Any:
        # One path per algorithm: engine_mode has nothing to select here.
        with get_tracer().span(f"block-centric/{algorithm}", category="engine"):
            return self._dispatch(algorithm, graph, recorder, params)

    def _dispatch(
        self,
        algorithm: str,
        graph: Graph,
        recorder: TraceRecorder,
        params: dict,
    ) -> Any:
        engine = BlockCentricEngine(graph, recorder)
        if algorithm == "pr":
            return pagerank_blocks(
                engine,
                damping=params.get("damping", 0.85),
                iterations=params.get("iterations", 10),
            )
        if algorithm == "lpa":
            return lpa_blocks(engine, iterations=params.get("iterations", 10))
        if algorithm == "sssp":
            return sssp_blocks(engine, source=params.get("source", 0))
        if algorithm == "wcc":
            return wcc_blocks(engine)
        if algorithm == "bc":
            return bc_blocks(engine, source=params.get("source", 0))
        if algorithm == "cd":
            return cd_blocks(engine)
        if algorithm == "tc":
            return tc_blocks(engine)
        if algorithm == "kc":
            return kc_blocks(engine, k=params.get("k", 4))
        if algorithm == "bfs":
            return bfs_blocks(engine, source=params.get("source", 0))
        if algorithm == "lcc":
            return lcc_blocks(engine)
        raise AssertionError(f"unhandled algorithm {algorithm!r}")

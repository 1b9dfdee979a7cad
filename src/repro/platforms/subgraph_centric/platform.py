"""G-thinker: the subgraph-centric platform.

Supports only the subgraph algorithms (TC, KC).  The other six core
algorithms need iterative control flow the task model does not provide —
the paper's six unimplementable cases (Section 8.2).
"""

from __future__ import annotations

from typing import Any

from repro.cluster.cost import TraceRecorder
from repro.core.graph import Graph
from repro.obs import get_tracer
from repro.platforms.base import Platform
from repro.platforms.common import EngineOptions
from repro.platforms.profile import PlatformProfile
from repro.platforms.subgraph_centric.engine import SubgraphCentricEngine

__all__ = ["SubgraphCentricPlatform"]


class SubgraphCentricPlatform(Platform):
    """G-thinker personality on the task engine."""

    def __init__(self, profile: PlatformProfile) -> None:
        super().__init__(profile)

    def algorithms(self) -> list[str]:
        """Only the subgraph algorithms are expressible."""
        return ["tc", "kc"]

    def extended_algorithms(self) -> list[str]:
        """Of LDBC's remaining algorithms only LCC is subgraph-shaped."""
        return ["lcc"]

    def _execute(
        self,
        algorithm: str,
        graph: Graph,
        recorder: TraceRecorder,
        params: dict,
        options: EngineOptions,
    ) -> Any:
        # One wave per algorithm: engine_mode has nothing to select here.
        with get_tracer().span(f"subgraph-centric/{algorithm}", category="engine"):
            engine = SubgraphCentricEngine(graph, recorder)
            if algorithm == "tc":
                return engine.count_triangles()
            if algorithm == "kc":
                return engine.count_k_cliques(params.get("k", 4))
            if algorithm == "lcc":
                return engine.local_clustering()
        raise AssertionError(f"unhandled algorithm {algorithm!r}")

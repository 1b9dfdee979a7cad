"""Block-centric engine (Grape's PEval/IncEval model).

The graph is split into contiguous blocks (one per logical part); each
worker runs a *sequential* algorithm over its whole block — no per-vertex
message passing inside a block — and workers exchange messages only over
cut edges between rounds.  This is why Grape needs few synchronizations
(rounds track block-crossings, not graph diameter) and why its per-round
compute is as cheap as a textbook sequential kernel (Section 8.2).

Algorithms are written against this engine as paired PEval (initial
round) / IncEval (incremental rounds) passes in
:mod:`repro.platforms.block_centric.algorithms`.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cost import TraceRecorder
from repro.core.graph import Graph
from repro.core.partition import range_partition
from repro.obs import get_tracer

__all__ = ["BlockCentricEngine"]


class BlockCentricEngine:
    """Block bookkeeping plus metering helpers for PEval/IncEval passes."""

    def __init__(self, graph: Graph, recorder: TraceRecorder) -> None:
        self.graph = graph
        self.recorder = recorder
        self.parts = recorder.parts
        partition = range_partition(graph, self.parts)
        self.block_of = partition.owner
        self.blocks = [partition.members(b) for b in range(self.parts)]
        self._step_ops: np.ndarray | None = None
        self._tracer = get_tracer()
        self._round_index = 0
        self._round_span = None

    # -- round management -----------------------------------------------

    def begin_round(self) -> None:
        """Open one PEval/IncEval round (a BSP superstep).

        Round 0 is PEval, later rounds are IncEval; the open round is
        also an observability span, closed by :meth:`end_round`.
        """
        name = "peval" if self._round_index == 0 else "inceval"
        self._round_span = self._tracer.span(
            name, category="superstep", index=self._round_index
        ).__enter__()
        self.recorder.begin_superstep()
        self._step_ops = np.zeros(self.parts)

    def end_round(self) -> None:
        """Seal the round, flushing accumulated per-block ops."""
        self.recorder.add_compute_counts(self._step_ops)
        self._step_ops = None
        self.recorder.end_superstep()
        self._round_span.__exit__(None, None, None)
        self._round_span = None
        self._round_index += 1

    def charge(self, block: int, ops: float) -> None:
        """Charge sequential-kernel work to one block's worker."""
        self._step_ops[block] += ops

    def send(self, src_block: int, dst_block: int, nbytes: float = 8.0,
             count: int = 1) -> None:
        """Meter boundary messages between blocks."""
        self.recorder.add_message(src_block, dst_block, nbytes, count=count)

    def send_matrix(self, counts: np.ndarray, total_bytes: np.ndarray) -> None:
        """Meter a ``(parts, parts)`` matrix of boundary messages:
        ``counts[i, j]`` totalling ``total_bytes[i, j]`` from block ``i``
        to block ``j`` (variable-size pulls, where :meth:`send`'s fixed
        size does not fit)."""
        self.recorder.add_message_counts(counts, total_bytes)

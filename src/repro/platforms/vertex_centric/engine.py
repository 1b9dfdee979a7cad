"""Vertex-centric BSP engine ("Think Like a Vertex").

Executes :class:`VertexProgram` subclasses in synchronous supersteps with
message passing, the model of Pregel/Pregel+/GraphX/Flash/Ligra.  While
executing, the engine meters work into a
:class:`~repro.cluster.cost.TraceRecorder`:

* one op per computed vertex, plus one op per processed message
  (halved when the platform's ``push_pull`` flag is set — pull-mode
  reads are sequential);
* platforms without ``vertex_subset`` scan the full vertex set every
  superstep (GraphX's Pregel joins messages against the whole vertex
  RDD), metered as one op per vertex per superstep;
* every message is charged between its endpoint parts; with the
  ``combiner`` flag, messages from one part to one destination vertex
  collapse into a single combined message (Pregel+ mirroring);
* program-specific work (set intersections, hash-table merges) is
  charged explicitly via :meth:`VertexContext.charge`.

Programs may expose ``frontiers`` (a list of per-superstep vertex
arrays) to run on an exact schedule — used by the backward phase of
Brandes BC.

Execution paths
---------------
The engine has two interchangeable execution paths:

* the **scalar path** calls ``compute(v, messages, ctx)`` once per
  active vertex with Python-level inbox lists — fully general, and the
  fallback for programs with irregular message protocols (BC,
  pointer-jumping WCC);
* the **bulk-frontier path** (Ligra-style) calls
  ``compute_bulk(frontier, inbox, ctx)`` once per superstep with the
  whole frontier as an int64 array and the inbox pre-aggregated into
  numpy arrays; message routing runs as array ops (``np.repeat`` over
  CSR blocks, ``np.add.at`` / ``np.bincount`` for combiner semantics)
  instead of per-tuple dict shuffling, and each send batch is metered
  as one part-pair matrix — a neighbour broadcast's from the senders'
  out-part histogram rather than per edge.

Bulk-only programs (TC, KC, LCC: no ``compute``) run on the bulk path
whatever the mode.  For the rest, the two paths are guaranteed — and
parity-tested — to produce **bit-identical results and WorkTraces**
(per-superstep ops, message counts, and message bytes).  Every metered
quantity is a sum of exactly representable floats (multiples of 0.5
and whole-byte payloads), so vectorised re-association cannot change
the totals; float-valued *algorithm* state (PageRank ranks, SSSP
distances) is kept bit-identical by performing reductions in the
scalar path's delivery order (``np.add.at``/``np.cumsum`` accumulate
strictly left-to-right, and combined per-part partials are folded in
ascending part order on both paths).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.cluster.cost import TraceRecorder
from repro.core.graph import Graph
from repro.core.partition import Partition
from repro.errors import ConvergenceError, PlatformError
from repro.obs import get_tracer
from repro.platforms.kernels import (
    broadcast_pair_counts,
    message_matrices,
    out_part_histogram,
    segment_slots,
)
from repro.platforms.profile import PlatformProfile

__all__ = [
    "VertexProgram",
    "BulkVertexProgram",
    "VertexContext",
    "BulkVertexContext",
    "BulkInbox",
    "VertexCentricEngine",
    "sequential_sum",
]

_EMPTY: tuple = ()


def sequential_sum(values: np.ndarray) -> float:
    """Strict left-to-right float sum (no pairwise re-association).

    ``np.cumsum`` computes the naive running-sum recurrence, so its last
    element equals the scalar path's ``total += x`` loop bit-for-bit —
    unlike ``np.sum``, whose pairwise algorithm rounds differently.
    """
    if values.size == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


class VertexProgram:
    """Base class for vertex-centric programs.

    Subclasses allocate per-vertex state in :meth:`setup`, name their
    starting vertices in :meth:`initial_frontier`, and implement
    :meth:`compute`, which receives the vertex id, its inbox, and a
    :class:`VertexContext` for sending/activating/charging.

    Class attributes
    ----------------
    combine:
        Optional ``staticmethod(a, b) -> value``; enables sender-side
        combining on platforms whose profile has ``combiner=True``.
    message_bytes:
        Default payload size per message; used whenever a send does not
        pass an explicit ``nbytes``.
    """

    combine: Callable | None = None
    message_bytes: float = 8.0

    def setup(self, graph: Graph) -> None:
        """Allocate per-vertex state before superstep 0."""

    def initial_frontier(self, graph: Graph) -> Iterable[int]:
        """Vertices computed in superstep 0 (default: all)."""
        return range(graph.num_vertices)

    def compute(self, v: int, messages: Sequence, ctx: "VertexContext") -> None:
        """Process one vertex for one superstep."""
        raise NotImplementedError


class BulkVertexProgram(VertexProgram):
    """Vertex program that also implements the vectorized bulk path.

    :meth:`compute_bulk` receives the active frontier as a sorted int64
    array, a :class:`BulkInbox` of aggregated message values, and a
    :class:`BulkVertexContext` for array-level sends.  It must implement
    *exactly* the same per-vertex logic as :meth:`compute`, if the
    program has one (the parity tests enforce bit-identical results and
    WorkTraces); a program without it runs on the bulk path only.

    Class attributes
    ----------------
    bulk_combine:
        Vectorised twin of :attr:`VertexProgram.combine`: ``"sum"`` or
        ``"min"``.  Required (and must match ``combine``'s semantics)
        when the program defines ``combine`` — the bulk path cannot fold
        an opaque Python callable over arrays.
    bulk_master_hook:
        Opt-in flag for programs with a ``before_superstep`` master
        hook.  By default a hook forces the scalar path (hooks written
        against :class:`VertexContext` may poke scalar internals);
        setting this true declares the hook safe on both paths — it is
        then invoked each superstep *before* the quiescence check, with
        the same ``(superstep, ctx)`` signature, and any returned
        vertices are merged into the frontier.
    """

    bulk_combine: str | None = None
    bulk_master_hook: bool = False

    def compute_bulk(
        self,
        frontier: np.ndarray,
        inbox: "BulkInbox",
        ctx: "BulkVertexContext",
    ) -> None:
        """Process the whole frontier for one superstep."""
        raise NotImplementedError


class VertexContext:
    """Per-superstep API handed to :meth:`VertexProgram.compute`."""

    __slots__ = ("graph", "superstep", "_sends", "_neighbor_sends",
                 "_next_active", "_extra_ops", "_agg_next", "_agg_prev",
                 "_default_nbytes")

    def __init__(
        self, graph: Graph, parts: int, default_nbytes: float = 8.0
    ) -> None:
        self.graph = graph
        self.superstep = 0
        self._default_nbytes = float(default_nbytes)
        self._sends: list[tuple[int, int, object, float]] = []
        self._neighbor_sends: list[tuple[int, object, float]] = []
        self._next_active: set[int] = set()
        self._extra_ops: dict[int, float] = {}
        self._agg_next: dict[str, float] = {}
        self._agg_prev: dict[str, float] = {}

    # -- messaging ------------------------------------------------------

    def send(self, src: int, dst: int, value, *, nbytes: float | None = None) -> None:
        """Send ``value`` from ``src`` to any vertex ``dst``.

        ``nbytes`` defaults to the running program's ``message_bytes``;
        an explicit ``nbytes=0.0`` is honoured (zero-payload signal).
        """
        if nbytes is None:
            nbytes = self._default_nbytes
        self._sends.append((src, dst, value, nbytes))

    def send_to_neighbors(self, v: int, value, *, nbytes: float | None = None) -> None:
        """Send ``value`` along every out-edge of ``v`` (bulk-metered)."""
        if nbytes is None:
            nbytes = self._default_nbytes
        self._neighbor_sends.append((v, value, nbytes))

    # -- scheduling -----------------------------------------------------

    def activate(self, v: int) -> None:
        """Ensure ``v`` computes next superstep even without messages."""
        self._next_active.add(v)

    # -- cost -----------------------------------------------------------

    def charge(self, v: int, ops: float) -> None:
        """Charge algorithm-specific compute ops at ``v``'s location."""
        self._extra_ops[v] = self._extra_ops.get(v, 0.0) + ops

    # -- aggregators ----------------------------------------------------

    def aggregate(self, name: str, value: float) -> None:
        """Contribute to a global sum visible next superstep."""
        self._agg_next[name] = self._agg_next.get(name, 0.0) + value

    def get_aggregate(self, name: str, default: float = 0.0) -> float:
        """Read the previous superstep's global sum."""
        return self._agg_prev.get(name, default)

    # -- engine internals ----------------------------------------------

    def _roll(self) -> None:
        self._sends = []
        self._neighbor_sends = []
        self._next_active = set()
        self._extra_ops = {}
        self._agg_prev = dict(self._agg_next)
        self._agg_next = {}


class BulkInbox:
    """Aggregated inbox handed to :meth:`BulkVertexProgram.compute_bulk`.

    Two internal forms, one API:

    * **raw** (no combiner): ``dst``/``values`` are flat aligned arrays
      in exact delivery order — one entry per delivered message;
    * **combined** (``profile.combiner`` and the program combines):
      per-vertex values already folded across per-part partials, with
      the per-vertex count of *combined* messages received.
    """

    __slots__ = ("n", "_dst", "_values", "_combined", "_counts")

    def __init__(
        self,
        n: int,
        *,
        dst: np.ndarray | None = None,
        values: np.ndarray | None = None,
        combined: np.ndarray | None = None,
        counts: np.ndarray | None = None,
    ) -> None:
        self.n = n
        self._dst = dst
        self._values = values
        self._combined = combined
        self._counts = counts

    @property
    def empty(self) -> bool:
        """Whether no messages were delivered this superstep."""
        return self._counts is None

    def count_per_vertex(self) -> np.ndarray:
        """(n,) int64 — messages each vertex received (post-combining)."""
        if self._counts is None:
            return np.zeros(self.n, dtype=np.int64)
        return self._counts

    def destinations(self) -> np.ndarray:
        """Sorted unique vertex ids with at least one message."""
        if self._counts is None:
            return np.empty(0, dtype=np.int64)
        return np.nonzero(self._counts)[0]

    def sum_per_vertex(self) -> np.ndarray:
        """(n,) per-vertex message sum, 0 where nothing arrived.

        Accumulates in exact delivery order (``np.add.at`` is strictly
        sequential), matching the scalar path's per-vertex sum loop.
        """
        if self._combined is not None:
            return self._combined
        if self._dst is None or self._dst.size == 0:
            return np.zeros(self.n)
        # np.bincount accumulates with a single sequential C loop over
        # its input — same left-to-right order as the scalar sum, and
        # far faster than np.add.at.
        return np.bincount(
            self._dst, weights=self._values, minlength=self.n
        )

    def min_per_vertex(self) -> np.ndarray:
        """(n,) per-vertex message minimum; the fill value for vertices
        with no messages is ``+inf`` (float) / int64 max (integer)."""
        if self._combined is not None:
            return self._combined
        if self._dst is None or self._dst.size == 0:
            return np.full(self.n, np.inf)
        fill = (
            np.iinfo(np.int64).max
            if self._values.dtype.kind in "iu" else np.inf
        )
        acc = np.full(self.n, fill, dtype=self._values.dtype)
        np.minimum.at(acc, self._dst, self._values)
        return acc

    def raw(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat ``(dst, values)`` arrays in delivery order (raw mode);
        two empty int64 arrays when nothing was delivered."""
        if self._combined is not None:
            raise PlatformError(
                "raw per-message values are unavailable once the "
                "platform's combiner has folded them"
            )
        if self._dst is None:
            e = np.empty(0, dtype=np.int64)
            return e, e.copy()
        return self._dst, self._values


class BulkVertexContext:
    """Per-superstep array API handed to :meth:`compute_bulk`."""

    __slots__ = ("graph", "superstep", "_part", "_parts", "_default_nbytes",
                 "_batches", "_active", "_extra_ops", "_agg_next", "_agg_prev")

    def __init__(
        self,
        graph: Graph,
        part: np.ndarray,
        parts: int,
        default_nbytes: float,
    ) -> None:
        self.graph = graph
        self.superstep = 0
        self._part = part
        self._parts = parts
        self._default_nbytes = float(default_nbytes)
        #: ``(senders, fanout, dst_flat, values_flat, nbytes)`` per send;
        #: ``fanout`` is None when ``senders`` is already one id per edge
        self._batches: list[tuple] = []
        self._active: list[np.ndarray] = []
        self._extra_ops = np.zeros(parts)
        self._agg_next: dict[str, float] = {}
        self._agg_prev: dict[str, float] = {}

    # -- messaging ------------------------------------------------------

    def expand_frontier(
        self, sources: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR-expand ``sources`` into per-out-edge flat arrays.

        Returns ``(src_flat, dst_flat, slot)`` where ``slot`` indexes the
        graph's ``indices``/``weights`` arrays — edges appear grouped by
        source in ``sources`` order, neighbours in adjacency order,
        matching the scalar path's per-vertex send order.
        """
        sources = np.asarray(sources, dtype=np.int64)
        slot, counts = segment_slots(self.graph.indptr, sources)
        if slot.size == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e.copy(), e.copy()
        return np.repeat(sources, counts), self.graph.indices[slot], slot

    def send_to_neighbors_bulk(
        self,
        sources: np.ndarray,
        values: np.ndarray,
        *,
        nbytes: float | None = None,
    ) -> None:
        """Send ``values[i]`` along every out-edge of ``sources[i]``.

        The batch keeps its senders and their fan-out instead of one
        source id per edge: the engine meters it from the senders' out-
        part histogram and expands sources per edge only where the
        combining route needs them.
        """
        sources = np.asarray(sources, dtype=np.int64)
        if sources.size == 0:
            return
        slot, fanout = segment_slots(self.graph.indptr, sources)
        if slot.size == 0:
            return
        self._batches.append((
            sources,
            fanout,
            self.graph.indices[slot],
            np.repeat(np.asarray(values), fanout),
            self._default_nbytes if nbytes is None else float(nbytes),
        ))

    def send_edges_bulk(
        self,
        src_flat: np.ndarray,
        dst_flat: np.ndarray,
        values_flat: np.ndarray,
        *,
        nbytes: float | np.ndarray | None = None,
    ) -> None:
        """Send pre-expanded per-edge messages (``values_flat[i]`` from
        ``src_flat[i]`` to ``dst_flat[i]``), metered per edge; ``nbytes``
        is one payload for all or an array of one per message."""
        src_flat = np.asarray(src_flat, dtype=np.int64)
        if src_flat.size == 0:
            return
        self._batches.append((
            src_flat,
            None,
            np.asarray(dst_flat, dtype=np.int64),
            np.asarray(values_flat),
            self._default_nbytes if nbytes is None else nbytes,
        ))

    # -- scheduling -----------------------------------------------------

    def activate_bulk(self, vertices: np.ndarray) -> None:
        """Ensure ``vertices`` compute next superstep even without
        messages."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size:
            self._active.append(vertices)

    # -- cost -----------------------------------------------------------

    def charge_bulk(self, vertices: np.ndarray, ops) -> None:
        """Charge per-vertex compute ops (scalar or aligned array) at
        each vertex's location."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            return
        ops = np.broadcast_to(np.asarray(ops, dtype=np.float64), vertices.shape)
        np.add.at(self._extra_ops, self._part[vertices], ops)

    # -- aggregators ----------------------------------------------------

    def aggregate(self, name: str, value: float) -> None:
        """Contribute to a global sum visible next superstep."""
        self._agg_next[name] = self._agg_next.get(name, 0.0) + value

    def get_aggregate(self, name: str, default: float = 0.0) -> float:
        """Read the previous superstep's global sum."""
        return self._agg_prev.get(name, default)

    # -- engine internals ----------------------------------------------

    def _take_active(self) -> np.ndarray:
        if not self._active:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(self._active))

    def _roll(self) -> None:
        self._batches = []
        self._active = []
        self._extra_ops = np.zeros(self._parts)
        self._agg_prev = dict(self._agg_next)
        self._agg_next = {}


class VertexCentricEngine:
    """Synchronous BSP executor for :class:`VertexProgram` instances.

    ``mode`` selects the execution path: ``"auto"`` (default) takes the
    vectorized bulk-frontier path whenever the program implements it,
    ``"bulk"`` forces it (raising :class:`~repro.errors.PlatformError`
    for scalar-only programs), and ``"scalar"`` forces the per-vertex
    path for programs that have one (bulk-only programs ignore it).
    """

    def __init__(
        self,
        graph: Graph,
        partition: Partition,
        recorder: TraceRecorder,
        profile: PlatformProfile,
        *,
        mode: str = "auto",
    ) -> None:
        if mode not in ("auto", "bulk", "scalar"):
            raise PlatformError(
                f"engine mode must be 'auto', 'bulk', or 'scalar'; got {mode!r}"
            )
        self.graph = graph
        self.partition = partition
        self.recorder = recorder
        self.profile = profile
        self.mode = mode
        self.last_path: str | None = None
        self._part = partition.owner
        self._part_sizes = partition.sizes().astype(np.float64)
        #: out-part histogram of the graph under the partition, built
        #: by :meth:`_out_part_histogram` once broadcasts make it pay
        self._out_parts: np.ndarray | None = None
        self._broadcast_slots = 0

    def run(self, program: VertexProgram, *, max_supersteps: int = 100000) -> VertexProgram:
        """Execute ``program`` to quiescence (or its scripted schedule).

        Returns the program, whose state arrays hold the results.
        Raises :class:`~repro.errors.ConvergenceError` if the superstep
        budget is exhausted with messages still in flight.
        """
        scripted = getattr(program, "frontiers", None)
        bulk_capable = (
            scripted is None
            and isinstance(program, BulkVertexProgram)
            and (
                getattr(program, "before_superstep", None) is None
                or program.bulk_master_hook
            )
        )
        bulk_only = type(program).compute is VertexProgram.compute
        if self.mode == "scalar" and not bulk_only:
            use_bulk = False
        elif self.mode == "bulk":
            if not bulk_capable:
                raise PlatformError(
                    f"{type(program).__name__} has no bulk-frontier path "
                    "(scripted schedules, master hooks, and scalar-only "
                    "programs run on the scalar path)"
                )
            use_bulk = True
        else:
            use_bulk = bulk_capable
        self.last_path = "bulk" if use_bulk else "scalar"
        if self.recorder.faults is not None:
            self.recorder.faults.new_section()
        with get_tracer().span(
            f"vertex-centric/{type(program).__name__}",
            category="engine",
            path=self.last_path,
        ):
            if use_bulk:
                return self._run_bulk(program, max_supersteps)
            return self._run_scalar(program, max_supersteps, scripted)

    def run_incremental(
        self,
        program: BulkVertexProgram,
        *,
        active: np.ndarray | None = None,
        inbox: "BulkInbox | None" = None,
        start_superstep: int = 0,
        setup: bool = False,
        max_supersteps: int = 100000,
    ) -> VertexProgram:
        """IncEval entry point: resume a bulk program from carried state.

        PEval is an ordinary :meth:`run`; after an edge batch the
        streaming session re-enters here with the delta-activated
        frontier (``active``) and/or a seeded ``inbox`` of boundary
        messages, skipping ``setup`` by default so program state (ranks,
        distances, labels) carries over from the previous window.  An
        empty seed quiesces before the first superstep, so an
        all-duplicate batch prices as zero supersteps.  Always runs on
        the bulk path.
        """
        if not isinstance(program, BulkVertexProgram):
            raise PlatformError(
                f"{type(program).__name__} has no bulk-frontier path; "
                "incremental execution needs compute_bulk"
            )
        self.last_path = "bulk"
        seed = (
            np.empty(0, dtype=np.int64) if active is None
            else np.asarray(active, dtype=np.int64)
        )
        with get_tracer().span(
            f"vertex-centric/{type(program).__name__}",
            category="engine",
            path="bulk-incremental",
        ):
            return self._run_bulk(
                program,
                max_supersteps,
                setup=setup,
                initial_active=seed,
                initial_inbox=inbox,
                start_superstep=start_superstep,
            )

    # ------------------------------------------------------------------
    # Scalar path
    # ------------------------------------------------------------------

    def _run_scalar(
        self,
        program: VertexProgram,
        max_supersteps: int,
        scripted: list[np.ndarray] | None,
    ) -> VertexProgram:
        graph, rec, profile = self.graph, self.recorder, self.profile
        tracer = get_tracer()
        parts = rec.parts
        program.setup(graph)
        if scripted is not None:
            # Programs build their schedule in setup() (BC backward);
            # re-read it now that state exists.
            scripted = program.frontiers
        ctx = VertexContext(graph, parts, program.message_bytes)

        inbox: dict[int, list] = {}
        active: set[int] = (
            set() if scripted is not None
            else set(int(v) for v in program.initial_frontier(graph))
        )
        n = graph.num_vertices
        # Direction-optimizing threshold: pull mode pays off only on
        # dense frontiers (Ligra's |frontier| > n/20 heuristic).
        dense_threshold = max(1, n // 20)

        hook = getattr(program, "before_superstep", None)

        for superstep in range(max_supersteps):
            ctx.superstep = superstep
            if hook is not None:
                # Master-compute hook (Pregel's master.compute()): may
                # inspect aggregates and schedule extra vertices.
                extra = hook(superstep, ctx)
                if extra is not None:
                    active.update(int(v) for v in extra)
            if scripted is not None:
                if superstep >= len(scripted):
                    return program
                compute_list: list[int] = [
                    int(v) for v in scripted[superstep]
                ]
            else:
                if not active and not inbox:
                    return program
                compute_list = sorted(active | inbox.keys())

            with tracer.span("superstep", category="superstep",
                             index=superstep, frontier=len(compute_list)):
                rec.begin_superstep()
                ctx.superstep = superstep
                part = self._part
                step_ops = np.zeros(parts)

                # Push/pull auto-switching: pull-mode sequential reads
                # halve per-message cost, but only dense frontiers
                # qualify.
                dense = len(compute_list) >= dense_threshold
                msg_op_cost = 0.5 if (profile.push_pull and dense) else 1.0

                # Per-superstep scan overhead (the vertex_subset effect).
                if profile.vertex_subset:
                    for v in compute_list:
                        step_ops[part[v]] += 1.0
                else:
                    step_ops += self._part_sizes

                for v in compute_list:
                    msgs = inbox.pop(v, _EMPTY)
                    if msgs:
                        step_ops[part[v]] += msg_op_cost * len(msgs)
                    program.compute(v, msgs, ctx)

                inbox = self._route(ctx, program, step_ops)

                self._flush_superstep(ctx._agg_next, step_ops)

                active = set(ctx._next_active)
                ctx._roll()

        raise ConvergenceError(
            f"{type(program).__name__} did not quiesce within "
            f"{max_supersteps} supersteps"
        )

    def _route(
        self,
        ctx: VertexContext,
        program: VertexProgram,
        step_ops: np.ndarray,
    ) -> dict[int, list]:
        """Deliver this superstep's sends, metering them; returns inbox."""
        rec = self.recorder
        part = self._part
        graph = self.graph
        combining = self.profile.combiner and program.combine is not None
        inbox: dict[int, list] = {}

        for v, ops in ctx._extra_ops.items():
            step_ops[part[v]] += ops

        if combining:
            combine = program.combine
            buffers: dict[tuple[int, int], tuple] = {}

            def _push(src: int, dst: int, value, nbytes: float) -> None:
                key = (int(part[src]), dst)
                step_ops[part[src]] += 1.0  # sender-side combine work
                existing = buffers.get(key)
                if existing is None:
                    buffers[key] = (value, nbytes)
                else:
                    buffers[key] = (combine(existing[0], value),
                                    max(existing[1], nbytes))

            for src, dst, value, nbytes in ctx._sends:
                _push(src, dst, value, nbytes)
            for v, value, nbytes in ctx._neighbor_sends:
                for dst in graph.neighbors(v).tolist():
                    _push(v, dst, value, nbytes)
            # Deliver in sorted (src_part, dst) order: each receiver sees
            # its per-part partials in ascending part order — the
            # canonical order the bulk path folds in, keeping float
            # summation bit-identical across paths.
            for (src_part, dst) in sorted(buffers):
                value, nbytes = buffers[(src_part, dst)]
                rec.add_message(src_part, part[dst], nbytes)
                inbox.setdefault(dst, []).append(value)
            return inbox

        for src, dst, value, nbytes in ctx._sends:
            rec.add_message(part[src], part[dst], nbytes)
            inbox.setdefault(dst, []).append(value)
        for v, value, nbytes in ctx._neighbor_sends:
            neighbors = graph.neighbors(v)
            if neighbors.size == 0:
                continue
            src_part = int(part[v])
            dst_parts, counts = np.unique(part[neighbors], return_counts=True)
            for dp, c in zip(dst_parts.tolist(), counts.tolist()):
                rec.add_message(src_part, dp, nbytes, count=int(c))
            for dst in neighbors.tolist():
                inbox.setdefault(dst, []).append(value)
        return inbox

    # ------------------------------------------------------------------
    # Bulk-frontier path
    # ------------------------------------------------------------------

    def _run_bulk(
        self,
        program: BulkVertexProgram,
        max_supersteps: int,
        *,
        setup: bool = True,
        initial_active: np.ndarray | None = None,
        initial_inbox: "BulkInbox | None" = None,
        start_superstep: int = 0,
    ) -> VertexProgram:
        graph, rec, profile = self.graph, self.recorder, self.profile
        tracer = get_tracer()
        parts = rec.parts
        part = self._part
        n = graph.num_vertices
        if setup:
            program.setup(graph)

        combining = profile.combiner and program.combine is not None
        if combining and program.bulk_combine not in ("sum", "min"):
            raise PlatformError(
                f"{type(program).__name__} defines combine but its "
                f"bulk_combine is {program.bulk_combine!r}; the bulk path "
                "needs 'sum' or 'min'"
            )

        ctx = BulkVertexContext(graph, part, parts, program.message_bytes)
        if initial_active is None:
            active = np.unique(np.fromiter(
                (int(v) for v in program.initial_frontier(graph)),
                dtype=np.int64,
            ))
        else:
            active = np.unique(np.asarray(initial_active, dtype=np.int64))
        inbox = BulkInbox(n) if initial_inbox is None else initial_inbox
        dense_threshold = max(1, n // 20)
        hook = (
            getattr(program, "before_superstep", None)
            if program.bulk_master_hook else None
        )

        for superstep in range(start_superstep, max_supersteps):
            ctx.superstep = superstep
            if hook is not None:
                # Master-compute hook, same placement as the scalar
                # path: before the quiescence check, merging any
                # returned vertices into the frontier.
                extra = hook(superstep, ctx)
                if extra is not None:
                    extra_arr = np.unique(np.fromiter(
                        (int(v) for v in extra), dtype=np.int64
                    ))
                    if extra_arr.size:
                        active = (
                            extra_arr if active.size == 0
                            else np.union1d(active, extra_arr)
                        )
            inbox_dsts = inbox.destinations()
            if active.size == 0 and inbox_dsts.size == 0:
                return program
            if inbox_dsts.size == 0:
                frontier = active
            elif active.size == 0:
                frontier = inbox_dsts
            else:
                frontier = np.union1d(active, inbox_dsts)

            with tracer.span("superstep", category="superstep",
                             index=superstep, frontier=int(frontier.size)):
                rec.begin_superstep()
                step_ops = np.zeros(parts)

                dense = frontier.size >= dense_threshold
                msg_op_cost = 0.5 if (profile.push_pull and dense) else 1.0

                # Per-superstep scan overhead (the vertex_subset effect).
                if profile.vertex_subset:
                    step_ops += np.bincount(part[frontier], minlength=parts)
                else:
                    step_ops += self._part_sizes

                # Per-message processing cost at the receivers.
                if inbox_dsts.size:
                    counts = inbox.count_per_vertex()[inbox_dsts]
                    step_ops += msg_op_cost * np.bincount(
                        part[inbox_dsts],
                        weights=counts.astype(np.float64),
                        minlength=parts,
                    )

                program.compute_bulk(frontier, inbox, ctx)

                inbox = self._route_bulk(ctx, program, step_ops, combining)

                self._flush_superstep(ctx._agg_next, step_ops)

                active = ctx._take_active()
                ctx._roll()

        raise ConvergenceError(
            f"{type(program).__name__} did not quiesce within "
            f"{max_supersteps} supersteps"
        )

    def _route_bulk(
        self,
        ctx: BulkVertexContext,
        program: BulkVertexProgram,
        step_ops: np.ndarray,
        combining: bool,
    ) -> BulkInbox:
        """Vectorised twin of :meth:`_route`: deliver this superstep's
        send batches with array ops, metering per part pair."""
        rec = self.recorder
        n = self.graph.num_vertices

        step_ops += ctx._extra_ops

        batches = ctx._batches
        if not batches:
            return BulkInbox(n)

        if combining:
            return self._route_bulk_combining(batches, program, step_ops)

        dst_chunks: list[np.ndarray] = []
        value_chunks: list[np.ndarray] = []
        for senders, fanout, dst_flat, values_flat, nbytes in batches:
            rec.add_message_counts(
                *self._message_matrices(senders, fanout, dst_flat, nbytes)
            )
            dst_chunks.append(dst_flat)
            value_chunks.append(values_flat)

        dst_all = (
            dst_chunks[0] if len(dst_chunks) == 1
            else np.concatenate(dst_chunks)
        )
        values_all = (
            value_chunks[0] if len(value_chunks) == 1
            else np.concatenate(value_chunks)
        )
        counts_vec = np.bincount(dst_all, minlength=n).astype(np.int64)
        return BulkInbox(n, dst=dst_all, values=values_all, counts=counts_vec)

    def _message_matrices(
        self,
        senders: np.ndarray,
        fanout: np.ndarray | None,
        dst_flat: np.ndarray,
        nbytes: float | np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(counts, total_bytes)`` part-pair matrices of one send batch.

        A neighbour broadcast (``fanout`` given) sums its senders' rows
        of the out-part histogram by sender part — O(senders · parts)
        instead of one part-pair id per edge; any other batch is counted
        per message.  Both forms count the same integers.
        """
        part = self._part
        parts = self.recorder.parts
        src_part = part[senders]
        if fanout is not None:
            hist = self._out_part_histogram(dst_flat.size)
            if hist is not None:
                counts = broadcast_pair_counts(hist, part, senders, parts)
                return counts, nbytes * counts
            src_part = np.repeat(src_part, fanout)
        return message_matrices(src_part, part[dst_flat], nbytes, parts)

    def _out_part_histogram(self, slots: int) -> np.ndarray | None:
        """The graph's :func:`~repro.platforms.kernels.out_part_histogram`
        under this engine's partition, or None while it does not pay.

        Building it costs one pass over every slot of the graph, so it
        is built only once this engine's broadcasts (``slots`` more now)
        have expanded as many slots as the graph stores; until then a
        broadcast is metered per edge.  A run that sends little, such as
        a warm SSSP window, never pays for it.
        """
        if self._out_parts is None:
            graph = self.graph
            self._broadcast_slots += slots
            if self._broadcast_slots < graph.indices.size:
                return None
            self._out_parts = out_part_histogram(
                graph.indptr, graph.indices, self._part, self.recorder.parts
            )
        return self._out_parts

    def _route_bulk_combining(
        self,
        batches: list[tuple],
        program: BulkVertexProgram,
        step_ops: np.ndarray,
    ) -> BulkInbox:
        """Sender-side combining (Pregel+ mirroring) over dense per-part
        partial arrays; folds and meters in ascending part order, the
        canonical order the scalar path also delivers in."""
        rec = self.recorder
        part = self._part
        parts = rec.parts
        n = self.graph.num_vertices
        mode = program.bulk_combine

        dtype = np.result_type(*(batch[3].dtype for batch in batches))
        if mode == "sum":
            fill = np.float64(0.0) if dtype.kind == "f" else dtype.type(0)
        else:
            fill = np.inf if dtype.kind == "f" else np.iinfo(dtype).max
        partial = np.full((parts, n), fill, dtype=dtype)
        touched = np.zeros((parts, n), dtype=bool)
        nbytes_max = np.zeros((parts, n))

        for senders, fanout, dst_flat, values_flat, nbytes in batches:
            sp = part[senders]
            if fanout is not None:
                sp = np.repeat(sp, fanout)
            # One op per original message: sender-side combine work.
            step_ops += np.bincount(sp, minlength=parts)
            if mode == "sum":
                if len(batches) == 1 and dtype.kind == "f":
                    # Single float batch: np.bincount's sequential C
                    # loop accumulates in exact send order, same as
                    # np.add.at but far faster.
                    partial = np.bincount(
                        sp * n + dst_flat,
                        weights=values_flat,
                        minlength=parts * n,
                    ).reshape(parts, n)
                else:
                    np.add.at(partial, (sp, dst_flat), values_flat)
            else:
                np.minimum.at(partial, (sp, dst_flat), values_flat)
            touched[sp, dst_flat] = True
            if np.ndim(nbytes):
                np.maximum.at(nbytes_max, (sp, dst_flat), nbytes)
            else:
                # With one nbytes, gather/max/scatter equals (and beats)
                # np.maximum.at: duplicates all write the same value.
                cur = np.maximum(nbytes_max[sp, dst_flat], nbytes)
                nbytes_max[sp, dst_flat] = cur

        if mode == "sum":
            combined = np.zeros(n, dtype=dtype)
        else:
            combined = np.full(n, fill, dtype=dtype)
        counts_vec = np.zeros(n, dtype=np.int64)
        msg_counts = np.zeros((parts, parts), dtype=np.int64)
        msg_bytes = np.zeros((parts, parts))
        for p in range(parts):
            dsts = np.nonzero(touched[p])[0]
            if dsts.size == 0:
                continue
            dp = part[dsts]
            msg_counts[p] = np.bincount(dp, minlength=parts)
            msg_bytes[p] = np.bincount(
                dp, weights=nbytes_max[p, dsts], minlength=parts
            )
            # Fold partials in ascending part order (bit-identical to the
            # scalar path's sorted delivery).
            if mode == "sum":
                combined[dsts] += partial[p, dsts]
            else:
                combined[dsts] = np.minimum(combined[dsts], partial[p, dsts])
            counts_vec[dsts] += 1
        rec.add_message_counts(msg_counts, msg_bytes)
        return BulkInbox(n, combined=combined, counts=counts_vec)

    # ------------------------------------------------------------------
    # Shared per-superstep sealing
    # ------------------------------------------------------------------

    def _flush_superstep(
        self, agg_next: dict[str, float], step_ops: np.ndarray
    ) -> None:
        rec = self.recorder
        parts = rec.parts
        rec.add_compute_counts(step_ops)
        if agg_next:
            # Aggregation: every part reports to a master and the
            # result is broadcast back.
            for p in range(1, parts):
                rec.add_message(p, 0, 8.0 * len(agg_next))
                rec.add_message(0, p, 8.0 * len(agg_next))
        rec.end_superstep()

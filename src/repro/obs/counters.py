"""Canonical counter vocabulary and the registry that accumulates it.

Before this module existed the same quantities lived under different
names in different places: :class:`~repro.cluster.cost.TraceRecorder`
meters ``ops``/``msg_count``/``msg_bytes`` per part,
:class:`~repro.cluster.metrics.RunMetrics` reports ``compute_ops`` /
``messages`` / ``remote_bytes`` / ``supersteps``, and the engines kept
ad-hoc locals (the subgraph engine's adjacency cache, the bench runner's
memoization).  :data:`VOCABULARY` fixes one name and one definition per
quantity; :class:`CounterRegistry` accumulates them and rejects names
outside the vocabulary, so a typo cannot silently fork the namespace
again.

The registry never *sources* numbers itself — instrumented code feeds it
(see :meth:`repro.obs.Tracer.add`), and the sums here are observability
roll-ups only.  The ground truth for pricing and parity remains the
:class:`~repro.cluster.cost.WorkTrace`.
"""

from __future__ import annotations

from repro.errors import ObservabilityError

__all__ = [
    "VOCABULARY",
    "COMPUTE_OPS",
    "MSG_COUNT",
    "MSG_BYTES",
    "SUPERSTEPS",
    "CACHE_HITS",
    "CACHE_MISSES",
    "GEN_EDGES",
    "GEN_TRIALS",
    "CASES_RUN",
    "CASE_CACHE_HITS",
    "CHECKPOINTS_WRITTEN",
    "CRASHES_INJECTED",
    "SUPERSTEPS_REPLAYED",
    "CASE_RETRIES",
    "DATASET_CACHE_HITS",
    "DATASET_CACHE_MISSES",
    "STORE_HITS",
    "STORE_MISSES",
    "STORE_PUTS",
    "POOL_TASKS",
    "KERNEL_CACHE_HITS",
    "KERNEL_CACHE_MISSES",
    "POOL_FALLBACKS",
    "SERVICE_SUBMITS",
    "SERVICE_DEDUP_HITS",
    "SERVICE_REJECTED",
    "SERVICE_CASES_DONE",
    "DELTA_EDGES_APPLIED",
    "DELTA_FRONTIER_VERTICES",
    "STREAM_WINDOWS",
    "CounterRegistry",
    "note_superstep",
]

#: Metered compute operations (``TraceRecorder.add_compute``; surfaces in
#: ``RunMetrics.compute_ops``).
COMPUTE_OPS = "compute_ops"
#: Messages charged between parts (``TraceRecorder.add_message`` /
#: ``add_message_counts``; surfaces in ``RunMetrics.messages``).
MSG_COUNT = "msg_count"
#: Payload bytes of those messages (surfaces in
#: ``RunMetrics.remote_bytes`` once priced).
MSG_BYTES = "msg_bytes"
#: Sealed supersteps / GAS iterations / PEval-IncEval rounds / task waves.
SUPERSTEPS = "supersteps"
#: Remote adjacency fetches served from the per-worker cache
#: (G-thinker's vertex cache in the subgraph-centric engine).
CACHE_HITS = "cache_hits"
#: Remote adjacency fetches that had to ship bytes (cache misses).
CACHE_MISSES = "cache_misses"
#: Edges produced by a data generator run.
GEN_EDGES = "gen_edges"
#: Sampling draws a generator made (FFT-DG's failure-free-trial count).
GEN_TRIALS = "gen_trials"
#: Benchmark cases executed for real by ``bench.runner.run_case``.
CASES_RUN = "cases_run"
#: Benchmark cases served from the session-level memo cache.
CASE_CACHE_HITS = "case_cache_hits"
#: Checkpoint images written by the fault runtime
#: (``repro.faults.FaultRuntime``).
CHECKPOINTS_WRITTEN = "checkpoints_written"
#: Machine crashes injected by a fault schedule.
CRASHES_INJECTED = "crashes_injected"
#: Supersteps replayed by copy during crash recovery (never sealed, so
#: ``SUPERSTEPS`` / ``COMPUTE_OPS`` count each logical superstep once).
SUPERSTEPS_REPLAYED = "supersteps_replayed"
#: Transient-fault retries performed by ``bench.runner.run_case``.
CASE_RETRIES = "case_retries"
#: Catalog datasets served from the in-process ``lru_cache``
#: (``datagen.catalog.build_dataset``).
DATASET_CACHE_HITS = "dataset_cache_hits"
#: Catalog datasets that had to be generated (or pulled from the
#: persistent store) because the in-process cache missed.
DATASET_CACHE_MISSES = "dataset_cache_misses"
#: Artifacts served from the persistent content-addressed store
#: (``repro.bench.store.ArtifactStore``).
STORE_HITS = "store_hits"
#: Persistent-store lookups that found nothing (or an unreadable entry).
STORE_MISSES = "store_misses"
#: Artifacts written to the persistent store.
STORE_PUTS = "store_puts"
#: Benchmark cases dispatched to pool worker processes
#: (``repro.bench.pool.run_cases``).
POOL_TASKS = "pool_tasks"
#: Derived-kernel lookups served from the per-graph cache
#: (``repro.platforms.kernels.cached_kernel``).
KERNEL_CACHE_HITS = "kernel_cache_hits"
#: Derived-kernel lookups that had to rebuild the artifact.
KERNEL_CACHE_MISSES = "kernel_cache_misses"
#: ``run_cases(jobs>1)`` calls that degraded to sequential execution
#: because they ran inside a pool worker (nested-pool guard).
POOL_FALLBACKS = "pool_fallbacks"
#: Benchmark cases submitted to the multi-tenant service
#: (``repro.service.BenchmarkService.submit``).
SERVICE_SUBMITS = "service_submits"
#: Service cases that attached to an identical in-flight execution
#: instead of dispatching their own.
SERVICE_DEDUP_HITS = "service_dedup_hits"
#: Service cases rejected by the admission preflight (``_admit`` said
#: the case cannot fit its cluster, is unsupported, or is misconfigured).
SERVICE_REJECTED = "service_rejected"
#: Service cases completed (served from memo, store, dedup, or executed).
SERVICE_CASES_DONE = "service_cases_done"
#: Genuinely-new undirected edges folded into a ``DeltaCSR`` overlay by
#: streaming ``apply_batch`` calls (duplicates and self-loops excluded).
DELTA_EDGES_APPLIED = "delta_edges_applied"
#: Vertices in the delta-activated frontier handed to IncEval across
#: stream windows (``repro.platforms.vertex_centric.streaming``).
DELTA_FRONTIER_VERTICES = "delta_frontier_vertices"
#: Stream windows processed by a PEval/IncEval streaming session.
STREAM_WINDOWS = "stream_windows"

#: The unified counter vocabulary: name -> one-line definition naming the
#: subsystem that previously owned the quantity.
VOCABULARY: dict[str, str] = {
    COMPUTE_OPS: (
        "Metered compute operations; was TraceRecorder ops / "
        "RunMetrics.compute_ops."
    ),
    MSG_COUNT: (
        "Messages charged between parts; was TraceRecorder msg_count / "
        "RunMetrics.messages."
    ),
    MSG_BYTES: (
        "Payload bytes of inter-part messages; was TraceRecorder "
        "msg_bytes / RunMetrics.remote_bytes."
    ),
    SUPERSTEPS: (
        "Sealed BSP supersteps (GAS iterations, block rounds, task "
        "waves); was RunMetrics.supersteps."
    ),
    CACHE_HITS: (
        "Remote adjacency pulls served from the subgraph engine's "
        "per-worker vertex cache."
    ),
    CACHE_MISSES: (
        "Remote adjacency pulls that shipped bytes (subgraph engine "
        "cache misses)."
    ),
    GEN_EDGES: "Edges produced by a data-generator run (TrialCounter.edges).",
    GEN_TRIALS: (
        "Sampling draws made by a data-generator run "
        "(TrialCounter.trials)."
    ),
    CASES_RUN: "Benchmark cases executed for real by run_case.",
    CASE_CACHE_HITS: "Benchmark cases served from run_case's memo cache.",
    CHECKPOINTS_WRITTEN: (
        "Checkpoint images written by the fault runtime "
        "(repro.faults.FaultRuntime)."
    ),
    CRASHES_INJECTED: "Machine crashes injected by a FaultSchedule.",
    SUPERSTEPS_REPLAYED: (
        "Supersteps replayed by copy during crash recovery."
    ),
    CASE_RETRIES: (
        "Transient-fault retries performed by run_case's "
        "retry-with-backoff loop."
    ),
    DATASET_CACHE_HITS: (
        "Catalog datasets served from the in-process lru_cache "
        "(datagen.catalog.build_dataset)."
    ),
    DATASET_CACHE_MISSES: (
        "Catalog datasets generated (or pulled from the persistent "
        "store) on an in-process cache miss."
    ),
    STORE_HITS: (
        "Artifacts served from the persistent content-addressed store "
        "(repro.bench.store.ArtifactStore)."
    ),
    STORE_MISSES: (
        "Persistent-store lookups that found nothing (or an unreadable "
        "entry)."
    ),
    STORE_PUTS: "Artifacts written to the persistent store.",
    POOL_TASKS: (
        "Benchmark cases dispatched to pool worker processes "
        "(repro.bench.pool.run_cases)."
    ),
    KERNEL_CACHE_HITS: (
        "Derived-kernel lookups served from the per-graph cache "
        "(repro.platforms.kernels.cached_kernel)."
    ),
    KERNEL_CACHE_MISSES: (
        "Derived-kernel lookups that rebuilt the artifact on a cache "
        "miss."
    ),
    POOL_FALLBACKS: (
        "run_cases(jobs>1) calls degraded to sequential execution by "
        "the nested-pool guard (repro.bench.pool)."
    ),
    SERVICE_SUBMITS: (
        "Benchmark cases submitted to the multi-tenant service "
        "(repro.service.BenchmarkService)."
    ),
    SERVICE_DEDUP_HITS: (
        "Service cases deduplicated onto an identical in-flight "
        "execution (repro.service.server)."
    ),
    SERVICE_REJECTED: (
        "Service cases rejected by the _admit() admission preflight "
        "(repro.service.scheduler)."
    ),
    SERVICE_CASES_DONE: (
        "Service cases completed, whatever layer served them "
        "(repro.service.BenchmarkService)."
    ),
    DELTA_EDGES_APPLIED: (
        "Genuinely-new undirected edges folded into a DeltaCSR overlay "
        "(repro.core.delta.DeltaCSR.apply_batch)."
    ),
    DELTA_FRONTIER_VERTICES: (
        "Delta-activated frontier vertices handed to IncEval "
        "(repro.platforms.vertex_centric.streaming)."
    ),
    STREAM_WINDOWS: (
        "Stream windows processed by a PEval/IncEval streaming session "
        "(repro.platforms.vertex_centric.streaming)."
    ),
}


class CounterRegistry:
    """Accumulates named counters against the unified vocabulary.

    Counters start at the vocabulary (:data:`VOCABULARY`) and may be
    extended with :meth:`register`; adding to an unknown name raises
    :class:`~repro.errors.ObservabilityError` so subsystems cannot
    re-fragment the namespace with private spellings.
    """

    __slots__ = ("_docs", "_values")

    def __init__(self) -> None:
        self._docs: dict[str, str] = dict(VOCABULARY)
        self._values: dict[str, float] = {}

    def register(self, name: str, doc: str) -> None:
        """Extend the vocabulary with a new counter and its definition."""
        if not name or not doc:
            raise ObservabilityError(
                "counter registration needs a non-empty name and doc"
            )
        existing = self._docs.get(name)
        if existing is not None and existing != doc:
            raise ObservabilityError(
                f"counter {name!r} already registered with a different "
                "definition"
            )
        self._docs[name] = doc

    def add(self, name: str, value: float = 1.0) -> None:
        """Accumulate ``value`` onto counter ``name``."""
        if name not in self._docs:
            raise ObservabilityError(
                f"unknown counter {name!r}; register() it or use one of "
                f"{sorted(self._docs)}"
            )
        self._values[name] = self._values.get(name, 0.0) + float(value)

    def get(self, name: str, default: float = 0.0) -> float:
        """Current value of ``name`` (``default`` if never added to)."""
        return self._values.get(name, default)

    def describe(self, name: str) -> str:
        """The vocabulary definition of ``name``."""
        try:
            return self._docs[name]
        except KeyError:
            raise ObservabilityError(f"unknown counter {name!r}") from None

    def snapshot(self) -> dict[str, float]:
        """Copy of all non-zero counters (insertion order)."""
        return dict(self._values)

    def reset(self) -> None:
        """Zero every counter, keeping registrations."""
        self._values.clear()

    def __contains__(self, name: str) -> bool:
        return name in self._docs

    def __len__(self) -> int:
        return len(self._values)


def note_superstep(tracer, step) -> None:
    """Feed one sealed superstep's totals into ``tracer``'s counters.

    ``step`` is duck-typed on :class:`~repro.cluster.cost.SuperstepRecord`
    (``ops``, ``msg_count``, ``msg_bytes`` arrays).  Called by
    :meth:`TraceRecorder.end_superstep` when a tracer is enabled, which is
    what instruments every engine family — and every ad-hoc metering
    site — uniformly.
    """
    tracer.add(COMPUTE_OPS, float(step.ops.sum()))
    tracer.add(MSG_COUNT, float(step.msg_count.sum()))
    tracer.add(MSG_BYTES, float(step.msg_bytes.sum()))
    tracer.add(SUPERSTEPS, 1.0)

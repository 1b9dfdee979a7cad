"""Platform base class: load/memory model, dispatch, pricing.

A :class:`Platform` bundles a :class:`~repro.platforms.profile.PlatformProfile`
with a set of algorithm implementations for its computing model.
``run()`` executes an algorithm for real (outputs are validated against
the reference kernels in tests) while metering the distributed work into
a :class:`~repro.cluster.cost.WorkTrace`, then prices the trace under the
given cluster to produce a :class:`~repro.cluster.metrics.RunMetrics`
(the canonical Table-5 vocabulary is documented there).

The returned :class:`PlatformRunResult` keeps the raw trace so scaling
experiments can re-price the same run under different thread/machine
configurations without re-executing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.cluster.cost import (
    NUM_PARTS,
    PricedRun,
    TraceRecorder,
    WorkTrace,
    check_memory,
    price_trace,
)
from repro.cluster.metrics import RunMetrics
from repro.cluster.spec import ClusterSpec
from repro.core.graph import Graph
from repro.errors import (
    PlatformError,
    TransientFaultError,
    UnsupportedAlgorithmError,
)
from repro.faults.runtime import FaultRuntime, FaultTimeline
from repro.obs import get_tracer
from repro.platforms.common import EngineOptions, parse_engine_options
from repro.platforms.profile import PlatformProfile

__all__ = ["Platform", "PlatformRunResult", "CORE_ALGORITHMS"]

#: The benchmark's eight core algorithms (Section 3), in Table-3 order.
CORE_ALGORITHMS = ("pr", "lpa", "sssp", "wcc", "bc", "cd", "tc", "kc")


@dataclass(frozen=True)
class PlatformRunResult:
    """Everything one platform/algorithm/dataset execution produced.

    ``timeline`` is ``None`` for failure-free runs; under a fault
    schedule it records the checkpoints written and crashes injected, so
    the same trace can be re-priced fault-aware or reduced to its
    failure-free sub-trace.
    """

    platform: str
    algorithm: str
    values: Any                 # algorithm output (array or scalar count)
    trace: WorkTrace            # metered work, re-priceable
    priced: PricedRun           # priced under the run's cluster
    metrics: RunMetrics         # Table-5 metrics
    cluster: ClusterSpec
    timeline: FaultTimeline | None = None

    def reprice(self, cluster: ClusterSpec, profile: PlatformProfile) -> PricedRun:
        """Price the same metered work under another configuration."""
        return price_trace(
            self.trace, cluster, profile.cost, faults=self.timeline
        )


class Platform:
    """Base class for the seven simulated platforms.

    Subclasses (one per computing model) implement :meth:`_execute` and
    declare their algorithm tables; unsupported algorithms raise
    :class:`~repro.errors.UnsupportedAlgorithmError`, reproducing the
    paper's 49-of-56 coverage matrix.
    """

    def __init__(self, profile: PlatformProfile) -> None:
        self.profile = profile

    # -- public API -----------------------------------------------------

    @property
    def name(self) -> str:
        """Platform name (Table 6)."""
        return self.profile.name

    def algorithms(self) -> list[str]:
        """Supported core-suite algorithm identifiers (Section 3)."""
        raise NotImplementedError

    def extended_algorithms(self) -> list[str]:
        """LDBC comparison algorithms (BFS, LCC) this platform also
        implements — outside the core suite and the coverage matrix."""
        return []

    def supports(self, algorithm: str) -> bool:
        """Whether ``algorithm`` can be expressed on this platform."""
        return (algorithm in self.algorithms()
                or algorithm in self.extended_algorithms())

    def run(
        self,
        algorithm: str,
        graph: Graph,
        cluster: ClusterSpec,
        *,
        attempt: int = 0,
        **params,
    ) -> PlatformRunResult:
        """Execute ``algorithm`` on ``graph`` under ``cluster``.

        Shared engine knobs (``engine_mode``, ``fault_schedule``,
        ``checkpoint_interval``) are parsed by
        :func:`~repro.platforms.common.parse_engine_options`; remaining
        keyword arguments go to the algorithm implementation.
        ``attempt`` is the retry ordinal — a schedule with
        ``transient_failures=k`` makes attempts ``0..k-1`` fail with
        :class:`~repro.errors.TransientFaultError` (the bench runner's
        retry loop increments ``attempt``).

        Raises
        ------
        UnsupportedAlgorithmError
            If the computing model cannot express the algorithm.
        PlatformError
            For configuration violations (Ligra on >1 machine, GraphX
            below its minimum thread counts, bad engine options).
        TransientFaultError
            For a scheduled transient job-submission failure.
        OutOfMemoryError
            When the working set exceeds cluster memory (stress test).
        """
        tracer = get_tracer()
        with tracer.span(
            f"{self.name}/{algorithm}",
            category="platform",
            platform=self.name,
            algorithm=algorithm,
            vertices=graph.num_vertices,
            edges=graph.num_edges,
        ):
            options = parse_engine_options(params)
            memory = self._admit(algorithm, graph, cluster, options)
            schedule = options.fault_schedule
            if attempt < schedule.transient_failures:
                raise TransientFaultError(
                    f"{self.name}/{algorithm}: simulated job-submission "
                    f"failure (attempt {attempt + 1} of "
                    f"{schedule.transient_failures} scheduled to fail)"
                )

            recorder = TraceRecorder(NUM_PARTS)
            runtime = None
            if not schedule.empty:
                runtime = FaultRuntime(
                    schedule,
                    options.checkpoint_interval,
                    cluster.machines,
                    checkpoint_bytes=self._checkpoint_bytes(graph),
                )
                runtime.attach(recorder)
            timeline = runtime.timeline if runtime is not None else None
            with tracer.span("execute", category="phase"):
                values = self._execute(
                    algorithm, graph, recorder, params, options
                )
            with tracer.span("price", category="phase"):
                priced = price_trace(
                    recorder.trace, cluster, self.profile.cost,
                    faults=timeline,
                )
                failure_free = None
                if timeline is not None:
                    failure_free = price_trace(
                        timeline.failure_free_trace(recorder.trace),
                        cluster,
                        self.profile.cost,
                    ).seconds

        upload = memory / (
            self.profile.upload_rate_bytes_per_second * cluster.machines
        )
        writeback = 8.0 * graph.num_vertices / (
            self.profile.upload_rate_bytes_per_second * cluster.machines
        )
        metrics = RunMetrics(
            upload_seconds=upload,
            run_seconds=priced.seconds,
            writeback_seconds=writeback,
            edges_processed=graph.num_edges,
            compute_ops=recorder.trace.total_ops,
            messages=recorder.trace.total_messages,
            remote_bytes=recorder.trace.total_message_bytes,
            supersteps=recorder.trace.supersteps,
            checkpoint_seconds=priced.checkpoint_seconds,
            recovery_seconds=priced.recovery_seconds,
            failure_free_run_seconds=failure_free,
        )
        return PlatformRunResult(
            platform=self.name,
            algorithm=algorithm,
            values=values,
            trace=recorder.trace,
            priced=priced,
            metrics=metrics,
            cluster=cluster,
            timeline=timeline,
        )

    def check_capacity(
        self, algorithm: str, graph: Graph, cluster: ClusterSpec, **params
    ) -> None:
        """Validate configuration and memory without executing.

        Raises the same errors :meth:`run` would raise before starting
        execution (transient faults excepted — those model submission
        flakiness, not capacity); used by the stress-test experiment,
        where only the can-it-fit outcome matters.
        """
        self.admission_bytes(algorithm, graph, cluster, **params)

    def admission_bytes(
        self, algorithm: str, graph: Graph, cluster: ClusterSpec, **params
    ) -> float:
        """Working-set bytes the admission check charges, without executing.

        The public face of :meth:`_admit`: validates the configuration
        and memory exactly as :meth:`run` would before execution, and
        returns the admitted working-set size in bytes.  The benchmark
        service (:mod:`repro.service`) preflights every case through it,
        and :meth:`check_capacity` delegates here.

        Raises :class:`~repro.errors.UnsupportedAlgorithmError`,
        :class:`~repro.errors.PlatformError`, or
        :class:`~repro.errors.OutOfMemoryError` when the case cannot be
        admitted.
        """
        options = parse_engine_options(params)
        return self._admit(algorithm, graph, cluster, options)

    # -- subclass hooks ---------------------------------------------------

    def _execute(
        self,
        algorithm: str,
        graph: Graph,
        recorder: TraceRecorder,
        params: dict,
        options: EngineOptions,
    ) -> Any:
        raise NotImplementedError

    def _working_set_extra_bytes(self, algorithm: str, graph: Graph) -> float:
        """Algorithm-specific memory beyond the loaded graph.

        Message-buffering models (vertex- and edge-centric) override this
        for the subgraph algorithms, whose adjacency-shipping buffers are
        quadratic in degree; streaming models (block-, subgraph-centric)
        pull adjacency incrementally and need no extra budget.
        """
        return 0.0

    # -- internals --------------------------------------------------------

    def _checkpoint_bytes(self, graph: Graph) -> float:
        """Size of one checkpoint image: the platform's per-vertex state.

        A checkpoint persists mutable algorithm state (vertex values),
        not the immutable loaded graph, so it scales with the profile's
        ``bytes_per_vertex`` only.
        """
        return self.profile.bytes_per_vertex * graph.num_vertices

    def _admit(
        self,
        algorithm: str,
        graph: Graph,
        cluster: ClusterSpec,
        options: EngineOptions,
    ) -> float:
        """Single admission path shared by :meth:`run` and
        :meth:`check_capacity`.

        Validates the configuration, then charges the working set —
        graph + algorithm extras + (once, here only) the in-memory
        checkpoint buffer when a fault schedule is active — against the
        cluster's memory.  Returns the admitted working-set bytes so
        :meth:`run` can derive the upload time from the same number.
        """
        self._validate(algorithm, cluster)
        memory = self.profile.memory_bytes(graph.num_vertices, graph.num_edges)
        memory += self._working_set_extra_bytes(algorithm, graph)
        if not options.fault_schedule.empty:
            memory += self._checkpoint_bytes(graph)
        check_memory(memory, cluster, what=f"{self.name}/{algorithm}")
        return memory

    def _validate(self, algorithm: str, cluster: ClusterSpec) -> None:
        if not self.supports(algorithm):
            raise UnsupportedAlgorithmError(
                f"{self.name} ({self.profile.model}) cannot express "
                f"{algorithm!r}; supported: {self.algorithms()}"
            )
        if self.profile.single_machine_only and cluster.machines > 1:
            raise PlatformError(
                f"{self.name} is a shared-memory platform; it cannot run "
                f"on {cluster.machines} machines"
            )
        minimum = self.profile.min_threads.get(algorithm)
        if minimum is not None and cluster.threads_per_machine < minimum:
            raise PlatformError(
                f"{self.name} requires at least {minimum} threads for "
                f"{algorithm!r}, got {cluster.threads_per_machine}"
            )

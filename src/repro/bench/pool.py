"""Parallel case executor: fan the benchmark grid over worker processes.

The paper's evaluation is a large case grid — 7 platforms × 8
algorithms × 8 FFT-DG datasets plus the scale-up/scale-out sweeps
(Figs. 10–12) — and every case is independent: seeded generation,
deterministic metering, pure pricing.  :func:`run_cases` exploits that
independence with a :class:`concurrent.futures.ProcessPoolExecutor`,
while the persistent store (:mod:`repro.bench.store`) keeps workers
from rebuilding shared artifacts per process.

Determinism is the contract: for any ``jobs`` value and any cache
temperature, :func:`run_cases` returns the **same** outcome list — same
:class:`~repro.bench.runner.CaseOutcome`\\ s, same
:class:`~repro.cluster.metrics.RunMetrics`, same WorkTraces, in
submission order — as running each spec sequentially in a cold process.
Parallelism and caching may only change wall-clock time (the pool
determinism suite asserts exactly this).

Observability: each dispatched case's worker runs under its own tracer
when the parent session is traced; the worker's finished spans and
counter totals ship back with the outcome and are merged into the
parent trace under a ``pool`` span (spans keep their names, categories,
wall-clock durations, and attributes; cross-process nesting is
flattened to the per-case root).  Dispatches surface as the
``pool_tasks`` counter.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.bench.runner import CaseOutcome, CaseSpec, memoize_outcome
from repro.bench.store import ArtifactStore, get_artifact_store, set_artifact_store
from repro.errors import ClusterConfigError
from repro.obs import POOL_FALLBACKS, POOL_TASKS, get_tracer, tracing

__all__ = [
    "run_cases",
    "run_grid",
    "set_default_jobs",
    "get_default_jobs",
    "WorkerReport",
]

#: Process-wide default parallelism, set by ``repro-bench --jobs`` so
#: every experiment module routed through :func:`run_cases` inherits the
#: CLI's choice without threading a parameter through each signature.
_DEFAULT_JOBS = 1


def set_default_jobs(jobs: int) -> int:
    """Set the default worker count for :func:`run_cases`; returns the
    previous value.  ``1`` means in-process sequential execution."""
    global _DEFAULT_JOBS
    if jobs < 1:
        raise ClusterConfigError(f"jobs must be >= 1, got {jobs}")
    previous = _DEFAULT_JOBS
    _DEFAULT_JOBS = jobs
    return previous


def get_default_jobs() -> int:
    """Current default worker count (1 = sequential)."""
    return _DEFAULT_JOBS


#: Set by :func:`_worker_init` in every pool worker;
#: :func:`run_cases` reads it to refuse nested pools.
_IN_POOL_WORKER = False

#: One-time latch for the nested-pool degradation warning, so a grid of
#: hundreds of cases produces one stderr line, not hundreds.
_FALLBACK_WARNED = False


def _note_pool_fallback(requested_jobs: int) -> None:
    """Record a nested-pool degradation (``jobs`` forced to 1).

    Bumps the ``pool_fallbacks`` counter when tracing and emits a
    once-per-process stderr warning, so the degradation is observable
    both programmatically and interactively.
    """
    global _FALLBACK_WARNED
    tracer = get_tracer()
    if tracer.enabled:
        tracer.add(POOL_FALLBACKS, 1.0)
    if not _FALLBACK_WARNED:
        _FALLBACK_WARNED = True
        import sys

        print(
            f"repro-bench: nested run_cases(jobs={requested_jobs}) inside a "
            "pool worker degraded to jobs=1 (fork-bomb guard); "
            "outcomes are unchanged, only this process's parallelism",
            file=sys.stderr,
        )


@dataclass(frozen=True)
class WorkerReport:
    """What one worker ships back for one dispatched case.

    ``spans`` are flattened ``(name, category, duration_s, attrs)``
    tuples of the worker-local trace (empty when the parent session is
    untraced); ``counters`` the worker-local counter totals for the
    case; ``store_stats`` the persistent-store hit/miss/put delta the
    case caused in the worker, folded back into the parent store's
    tallies so ``repro-bench``'s cache-stats line covers pooled runs.
    """

    outcome: CaseOutcome
    counters: tuple[tuple[str, float], ...] = ()
    spans: tuple[tuple[str, str, float, tuple[tuple[str, object], ...]], ...] = ()
    store_stats: tuple[tuple[str, int], ...] = ()


def _worker_init(store_root: str | None, cache_size: int | None) -> None:
    """Initializer run once per worker process.

    Re-installs the persistent store and the dataset-cache size so the
    pool behaves identically under every multiprocessing start method
    (``fork`` workers inherit the globals anyway; ``spawn``/``forkserver``
    workers would not).

    The process is also marked as a pool worker, so nested
    :func:`run_cases` calls refuse to open a second pool.
    """
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True
    if store_root is not None:
        set_artifact_store(ArtifactStore(store_root))
    if cache_size is not None:
        from repro.datagen.catalog import set_dataset_cache_size

        set_dataset_cache_size(cache_size)


def _run_spec(spec: CaseSpec, traced: bool) -> WorkerReport:
    """Execute one spec in a worker, under a worker-local tracer."""
    store = get_artifact_store()
    before = store.stats() if store is not None else {}
    if not traced:
        outcome = spec.run()
        return WorkerReport(
            outcome=outcome, store_stats=_stats_delta(store, before)
        )
    with tracing() as tracer:
        outcome = spec.run()
    spans = tuple(
        (
            span.name,
            span.category,
            span.duration,
            tuple(sorted((k, _plain(v)) for k, v in span.attrs.items())),
        )
        for span in tracer.spans
    )
    counters = tuple(sorted(tracer.counters.snapshot().items()))
    return WorkerReport(
        outcome=outcome,
        counters=counters,
        spans=spans,
        store_stats=_stats_delta(store, before),
    )


def _stats_delta(
    store: ArtifactStore | None, before: dict[str, int]
) -> tuple[tuple[str, int], ...]:
    """Hit/miss/put movement on ``store`` since ``before``'s snapshot."""
    if store is None:
        return ()
    after = store.stats()
    return tuple(
        (name, after[name] - before.get(name, 0)) for name in sorted(after)
    )


def _plain(value: object) -> object:
    """Reduce an attribute to a picklable, trace-exportable primitive."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _merge_report(tracer, spec: CaseSpec, report: WorkerReport) -> None:
    """Fold one worker's trace into the parent tracer.

    The worker's spans re-record under a ``pool-case/...`` span with
    their original names, categories, durations, and attributes;
    counter totals accumulate into the parent registry (unknown names —
    counters a worker registered beyond the shared vocabulary — are
    registered on the fly so the merge cannot throw).
    """
    with tracer.span(
        f"pool-case/{spec.platform}/{spec.algorithm}/{spec.dataset}",
        category="pool",
        platform=spec.platform,
        algorithm=spec.algorithm,
        dataset=spec.dataset,
    ):
        for name, value in report.counters:
            if name not in tracer.counters:
                tracer.counters.register(
                    name, "worker-reported counter (merged by the pool)"
                )
            tracer.add(name, value)
        for name, category, duration, attrs in report.spans:
            tracer.record_span(
                name, max(0.0, duration), category=category, **dict(attrs)
            )


def run_cases(
    specs: list[CaseSpec] | tuple[CaseSpec, ...],
    *,
    jobs: int | None = None,
) -> list[CaseOutcome]:
    """Run a grid of case specs, possibly in parallel.

    ``jobs=None`` uses the default set by :func:`set_default_jobs` (the
    ``repro-bench --jobs`` knob).  With ``jobs=1`` every spec runs
    in-process through :func:`~repro.bench.runner.run_case`, exactly as
    the historical sequential loops did.  With ``jobs>1`` unique specs
    fan out over a process pool; duplicate specs (grids sharing cases,
    e.g. the scaling sweeps) are dispatched once and fanned back to
    every position.  Results always come back in submission order.

    Worker outcomes are memoized into the parent session
    (:func:`~repro.bench.runner.memoize_outcome`) so follow-up
    sequential code — re-pricing sweeps, summary tables — hits the memo
    instead of re-executing.
    """
    specs = list(specs)
    jobs = _DEFAULT_JOBS if jobs is None else jobs
    if jobs < 1:
        raise ClusterConfigError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1 and _IN_POOL_WORKER:
        # Fork-bomb guard: a pool worker asked for another pool.
        # Nested pools would multiply processes without bound, so
        # degrade to in-process sequential execution —
        # outcome-identical by the pool determinism contract.  Surfaced
        # (not silent): the tracer counts the fallback and the first
        # occurrence per process warns on stderr, since callers asking
        # for jobs>1 here usually have a misplaced parallelism knob.
        _note_pool_fallback(jobs)
        jobs = 1
    if jobs == 1 or len(specs) <= 1:
        return [spec.run() for spec in specs]

    unique: list[CaseSpec] = []
    seen: set[CaseSpec] = set()
    for spec in specs:
        if spec not in seen:
            seen.add(spec)
            unique.append(spec)

    tracer = get_tracer()
    store = get_artifact_store()
    store_root = str(store.root) if store is not None else None
    from repro.datagen.catalog import dataset_cache_info

    cache_size = dataset_cache_info().maxsize
    outcomes: dict[CaseSpec, CaseOutcome] = {}
    with tracer.span("pool", category="pool", jobs=jobs,
                     cases=len(unique)):
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(unique)),
            initializer=_worker_init,
            initargs=(store_root, cache_size),
        ) as executor:
            futures = []
            for spec in unique:
                if tracer.enabled:
                    tracer.add(POOL_TASKS, 1.0)
                futures.append(
                    executor.submit(_run_spec, spec, tracer.enabled)
                )
            for spec, future in zip(unique, futures):
                report = future.result()
                outcomes[spec] = report.outcome
                memoize_outcome(spec, report.outcome)
                if store is not None and report.store_stats:
                    delta = dict(report.store_stats)
                    store.hits += delta.get("hits", 0)
                    store.misses += delta.get("misses", 0)
                    store.puts += delta.get("puts", 0)
                if tracer.enabled and (report.spans or report.counters):
                    _merge_report(tracer, spec, report)
    return [outcomes[spec] for spec in specs]


def run_grid(
    platforms,
    algorithms,
    datasets,
    *,
    jobs: int | None = None,
    **case_kwargs,
) -> list[CaseOutcome]:
    """Convenience fan-out over a dataset × algorithm × platform product.

    Iterates datasets outermost and platforms innermost — the exact
    nesting order of the historical sequential loops in
    :mod:`repro.bench.performance`, so outcome order is unchanged.
    ``case_kwargs`` go to every :meth:`CaseSpec.make`.
    """
    specs = [
        CaseSpec.make(platform, algorithm, dataset, **case_kwargs)
        for dataset in datasets
        for algorithm in algorithms
        for platform in platforms
    ]
    return run_cases(specs, jobs=jobs)

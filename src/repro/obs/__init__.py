"""repro.obs — unified observability: spans, counters, trace export.

The paper's analyses read off operation counts, superstep rounds, and
communication volume; this package makes those signals visible *inside*
a run instead of only in end-of-run totals.  Three pieces:

* :mod:`repro.obs.span` — a :class:`Span` API (named, nested,
  wall-clock + counter deltas) and a process-global :class:`Tracer`
  with a zero-overhead no-op mode (the default).
* :mod:`repro.obs.counters` — the :class:`CounterRegistry` and the
  canonical counter vocabulary that unifies what ``TraceRecorder``,
  ``RunMetrics``, and the engines previously named independently.
* :mod:`repro.obs.export` — JSONL, Chrome-trace (``chrome://tracing``
  / Perfetto) JSON, and a text summary tree.

Tracing never perturbs metered work: engines with tracing enabled
produce bit-identical :class:`~repro.cluster.cost.WorkTrace` outputs
(enforced by the parity suite).  See ``docs/observability.md``.
"""

from repro.obs.counters import (
    CACHE_HITS,
    CACHE_MISSES,
    CASE_CACHE_HITS,
    CASE_RETRIES,
    CASES_RUN,
    CHECKPOINTS_WRITTEN,
    COMPUTE_OPS,
    CRASHES_INJECTED,
    DATASET_CACHE_HITS,
    DATASET_CACHE_MISSES,
    GEN_EDGES,
    GEN_TRIALS,
    KERNEL_CACHE_HITS,
    KERNEL_CACHE_MISSES,
    MSG_BYTES,
    MSG_COUNT,
    POOL_FALLBACKS,
    POOL_TASKS,
    SERVICE_CASES_DONE,
    SERVICE_DEDUP_HITS,
    SERVICE_REJECTED,
    SERVICE_SUBMITS,
    STORE_HITS,
    STORE_MISSES,
    STORE_PUTS,
    SUPERSTEPS,
    SUPERSTEPS_REPLAYED,
    VOCABULARY,
    CounterRegistry,
    note_superstep,
)
from repro.obs.export import (
    chrome_trace_json,
    summary_tree,
    to_chrome_trace,
    to_jsonl,
)
from repro.obs.span import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    tracing,
)

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "tracing",
    "CounterRegistry",
    "VOCABULARY",
    "note_superstep",
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
    "POOL_FALLBACKS",
    "KERNEL_CACHE_HITS",
    "KERNEL_CACHE_MISSES",
    "SERVICE_SUBMITS",
    "SERVICE_DEDUP_HITS",
    "SERVICE_REJECTED",
    "SERVICE_CASES_DONE",
    "to_jsonl",
    "to_chrome_trace",
    "chrome_trace_json",
    "summary_tree",
]

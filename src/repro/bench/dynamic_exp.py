"""The dynamic-workload experiment: PEval/IncEval vs per-window recompute.

One shared implementation behind ``repro-bench dynamic``, the
``benchmarks/bench_dynamic_workload.py`` grid, and the IncEval gate in
``tests/bench/test_dynamic_exp.py``.  A run compares two ways of keeping an
algorithm's result current over a :class:`~repro.datagen.dynamic`
edge-insertion stream:

* **incremental** — one warm :class:`
  ~repro.platforms.vertex_centric.streaming.StreamingSession` per
  algorithm: PEval on window 0, IncEval from the delta frontier after
  every batch;
* **recompute** — a cold run of the *same* program on every window's
  snapshot (the fair baseline: same convergence criterion, same engine).

Every window also checks result parity between the warm and cold paths:
WCC and SSSP must match bit-exactly, delta PageRank within a certified
tolerance (the measured error is recorded), and LPA is checked for
stability of its converged labelling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.datagen.dynamic import generate_stream
from repro.errors import BenchmarkError
from repro.faults.schedule import EMPTY_SCHEDULE, FaultSchedule, MachineCrash
from repro.platforms.vertex_centric.streaming import (
    STREAM_ALGORITHMS,
    StreamingSession,
)

__all__ = [
    "DEFAULT_VERTICES",
    "DEFAULT_PRUNE",
    "PR_PARITY_ATOL",
    "WindowRow",
    "DynamicReport",
    "dynamic_stream",
    "run_dynamic_case",
    "crash_replay_case",
    "lpa_is_stable",
]

#: Default stream size: large enough that a 50-edge window is a small
#: perturbation (the realistic streaming regime), small enough for CI.
DEFAULT_VERTICES = 2000

#: Default mass-pruning threshold of the delta PageRank program; the
#: warm/cold fixpoint disagreement it admits stays well under
#: :data:`PR_PARITY_ATOL` at catalog scales.
DEFAULT_PRUNE = 1e-7

#: Certified warm-vs-cold PageRank tolerance: every run records the
#: measured max abs error and fails if it exceeds this.
PR_PARITY_ATOL = 1e-5


@lru_cache(maxsize=4)
def dynamic_stream(num_vertices: int, batch_edges: int):
    """The experiment's memoized edge-insertion stream.

    90 % of the edges are bulk-loaded into window 0 (the PEval load);
    the rest trickle in ``batch_edges``-edge windows.  Every algorithm's
    session and recompute baseline iterate the same object, so its
    memoized snapshots are built once per grid."""
    return generate_stream(
        num_vertices, edges_per_batch=batch_edges, bulk_load=0.9, seed=3
    )


@dataclass(frozen=True)
class WindowRow:
    """One stream window's incremental-vs-recompute comparison."""

    window: int
    mode: str                      # "peval" | "inceval"
    new_edges: int
    frontier: int
    incremental_seconds: float
    incremental_supersteps: int
    recompute_seconds: float
    recompute_supersteps: int
    parity: str                    # "exact" | "certified" | "stable"
    max_abs_err: float


@dataclass
class DynamicReport:
    """Everything one algorithm's stream run produced."""

    algorithm: str
    num_vertices: int
    batch_edges: int
    windows: list[WindowRow] = field(default_factory=list)
    fingerprint: str = ""

    @property
    def incremental_seconds(self) -> float:
        """Priced seconds across all IncEval windows (PEval excluded)."""
        return sum(
            w.incremental_seconds for w in self.windows if w.window > 0
        )

    @property
    def recompute_seconds(self) -> float:
        """Priced cold-recompute seconds over the same windows."""
        return sum(
            w.recompute_seconds for w in self.windows if w.window > 0
        )

    @property
    def speedup(self) -> float:
        """Recompute-over-incremental ratio on the IncEval windows."""
        inc = self.incremental_seconds
        return self.recompute_seconds / inc if inc > 0 else float("inf")

    @property
    def edges_per_second(self) -> float:
        """Windowed ingest throughput of the incremental path."""
        applied = sum(w.new_edges for w in self.windows if w.window > 0)
        inc = self.incremental_seconds
        return applied / inc if inc > 0 else float("inf")

    @property
    def max_abs_err(self) -> float:
        """Largest warm-vs-cold deviation across windows (PR only)."""
        return max((w.max_abs_err for w in self.windows), default=0.0)


def lpa_is_stable(graph, labels: np.ndarray) -> bool:
    """Whether one more synchronous modal-min pass would change nothing."""
    from repro.algorithms.reference.lpa import label_propagation

    after = label_propagation(graph, max_iterations=1, labels=labels.copy())
    return bool(np.array_equal(after, labels))


def _check_parity(algorithm, session, graph, cold_values) -> tuple[str, float]:
    """Window parity between the warm session and the cold baseline."""
    warm = session.values()
    if algorithm in ("wcc", "sssp"):
        if not np.array_equal(warm, cold_values):
            raise BenchmarkError(
                f"{algorithm}: incremental result diverged from cold "
                "recompute (expected bit-exact equality)"
            )
        return "exact", 0.0
    if algorithm == "pr":
        err = float(np.max(np.abs(warm - cold_values))) if warm.size else 0.0
        if err > PR_PARITY_ATOL:
            raise BenchmarkError(
                f"pr: warm/cold fixpoints differ by {err:.3e} "
                f"(certified tolerance {PR_PARITY_ATOL:.0e})"
            )
        return "certified", err
    # lpa: capped synchronous rounds are path-dependent, so warm and
    # cold labellings may legitimately differ; what must hold is that
    # the warm labelling is a fixpoint of one more synchronous pass.
    return ("stable" if lpa_is_stable(graph, warm) else "oscillating"), 0.0


def run_dynamic_case(
    algorithm: str,
    *,
    num_vertices: int = DEFAULT_VERTICES,
    batch_edges: int = 50,
    num_batches: int = 8,
    prune: float = DEFAULT_PRUNE,
    fault_schedule: FaultSchedule = EMPTY_SCHEDULE,
) -> DynamicReport:
    """Stream ``num_batches`` incremental windows and compare strategies.

    Window 0 (the bulk load) runs PEval; each of the following
    ``num_batches`` windows runs IncEval on the warm session *and* a
    cold recompute of the same program on the window's snapshot, with a
    parity check between the two results.
    """
    if algorithm not in STREAM_ALGORITHMS:
        raise BenchmarkError(
            f"dynamic workload supports {STREAM_ALGORITHMS}, "
            f"got {algorithm!r}"
        )
    stream = dynamic_stream(num_vertices, batch_edges)
    windows = min(num_batches + 1, len(stream))
    params = {"prune": prune} if algorithm == "pr" else {}
    session = StreamingSession(
        num_vertices,
        algorithm,
        fault_schedule=fault_schedule,
        **params,
    )
    report = DynamicReport(
        algorithm=algorithm,
        num_vertices=num_vertices,
        batch_edges=batch_edges,
    )
    for t in range(windows):
        result = session.process_window(stream.batches[t])
        graph = stream.snapshot(t)
        cold, cold_values = session.recompute_window(graph)
        parity, err = _check_parity(algorithm, session, graph, cold_values)
        report.windows.append(WindowRow(
            window=t,
            mode=result.mode,
            new_edges=result.new_edges,
            frontier=result.frontier_size,
            incremental_seconds=result.priced.seconds,
            incremental_supersteps=result.supersteps,
            recompute_seconds=cold.seconds,
            recompute_supersteps=cold.supersteps,
            parity=parity,
            max_abs_err=err,
        ))
    report.fingerprint = session.result_fingerprint()
    return report


def crash_replay_case(
    algorithm: str,
    *,
    num_vertices: int = DEFAULT_VERTICES,
    batch_edges: int = 50,
    num_batches: int = 8,
    crash_window: int = 5,
    prune: float = DEFAULT_PRUNE,
) -> dict:
    """Crash mid-stream and prove recovery is bit-identical.

    Runs the same stream twice — once failure-free, once with a machine
    crash scheduled at ``crash_window`` — and compares result
    fingerprints after every window.  The crashed session prices a
    replay of the window traces since its last checkpoint, and its
    state must agree with the failure-free twin bit-for-bit.
    """
    if not 0 < crash_window <= num_batches:
        raise BenchmarkError(
            f"crash_window must be in [1, {num_batches}], "
            f"got {crash_window}"
        )
    stream = dynamic_stream(num_vertices, batch_edges)
    windows = min(num_batches + 1, len(stream))
    params = {"prune": prune} if algorithm == "pr" else {}
    schedule = FaultSchedule(
        crashes=(MachineCrash(superstep=crash_window, machine=0),)
    )
    clean = StreamingSession(num_vertices, algorithm, **params)
    crashed = StreamingSession(
        num_vertices, algorithm, fault_schedule=schedule, **params
    )
    recovery_seconds = 0.0
    replayed = 0
    for t in range(windows):
        clean.process_window(stream.batches[t])
        result = crashed.process_window(stream.batches[t])
        if result.recovered:
            recovery_seconds += result.recovery.seconds
            replayed += result.replayed_windows
        if crashed.result_fingerprint() != clean.result_fingerprint():
            raise BenchmarkError(
                f"{algorithm}: post-recovery state diverged from the "
                f"failure-free run at window {t}"
            )
    return {
        "algorithm": algorithm,
        "crash_window": crash_window,
        "windows": windows,
        "replayed_windows": replayed,
        "recovery_seconds": recovery_seconds,
        "fingerprint": clean.result_fingerprint(),
        "bit_identical": True,
    }

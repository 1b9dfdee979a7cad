"""Regenerate the WGB-style dynamic-workload artefact (E-DYN):
PEval/IncEval vs per-window recompute, in simulated seconds.

Two layers, matching how the subsystem is built:

* **Kernel layer** — the vectorized incremental algorithms in
  :mod:`repro.algorithms.incremental` (union-find WCC, warm-start PR)
  must beat their recompute baselines on operation counts, exactly as
  the seed asserted (``incremental_ops < 0.8 * recompute_ops``).
* **Engine layer** — every streaming algorithm (PR, SSSP, WCC, LPA)
  runs through a warm
  :class:`~repro.platforms.vertex_centric.streaming.StreamingSession`
  (PEval on the bulk-load window, IncEval per update batch) against a
  cold recompute of the *same* program per window, with per-window
  result-parity checks (bit-exact for WCC/SSSP, certified tolerance for
  delta PR, stability for LPA), plus crash-mid-stream legs that price
  a replay of the window traces since the last checkpoint and must
  leave the state bit-identical to a failure-free twin.

Asserts: incremental ≥ 3x recompute on the PR and WCC legs, and
bit-identical crash recovery.  The table lands in
``benchmarks/out/dynamic_workload.txt``.
"""

from repro.algorithms.incremental import IncrementalPageRank, replay_stream_wcc
from repro.bench.cli import main
from repro.bench.dynamic_exp import crash_replay_case, run_dynamic_case
from repro.datagen.dynamic import generate_stream

BATCH_EDGES = 50
NUM_BATCHES = 8
CRASH_WINDOW = 5

#: The acceptance gate: warm IncEval must beat cold recompute by at
#: least this factor on the PR and WCC legs.
MIN_SPEEDUP = 3.0


def _kernel_report() -> dict:
    """The seed's kernel-level comparison."""
    stream = generate_stream(2000, num_batches=10, seed=3)
    wcc = replay_stream_wcc(stream)
    warm = IncrementalPageRank(2000, tolerance=1e-10)
    warm_total, cold_total = 0, 0
    for t in range(len(stream)):
        snapshot = stream.snapshot(t)
        warm.update(snapshot)
        if t > 0:
            warm_total += warm.last_iterations
            cold = IncrementalPageRank(2000, tolerance=1e-10)
            cold.update(snapshot, cold_start=True)
            cold_total += cold.last_iterations
    return {
        "wcc_incremental_ops": wcc["incremental_ops"],
        "wcc_recompute_ops": wcc["recompute_ops"],
        "pr_warm_iterations": warm_total,
        "pr_cold_iterations": cold_total,
    }


def test_dynamic_workload(regen):
    """Incremental maintenance must beat recomputation at both layers
    (union-find/PR kernels on operation counts, PEval/IncEval engine
    legs on priced seconds) with per-window result parity and
    bit-identical crash recovery (validated inside run_dynamic_case and
    crash_replay_case)."""
    shape = dict(batch_edges=BATCH_EDGES, num_batches=NUM_BATCHES)

    def _run():
        main(["dynamic", "--dynamic-batches", str(NUM_BATCHES),
              "--dynamic-batch-edges", str(BATCH_EDGES)])
        speedups = {
            algorithm: run_dynamic_case(algorithm, **shape).speedup
            for algorithm in ("pr", "wcc")
        }
        crashes = [
            crash_replay_case(algorithm, crash_window=CRASH_WINDOW, **shape)
            for algorithm in ("wcc", "pr")
        ]
        return speedups, crashes, _kernel_report()

    speedups, crashes, kernel = regen(_run)
    for algorithm, speedup in speedups.items():
        assert speedup >= MIN_SPEEDUP, (
            f"{algorithm}: speedup {speedup:.1f}x below {MIN_SPEEDUP}x"
        )
    assert all(c["bit_identical"] for c in crashes)
    assert kernel["wcc_incremental_ops"] < 0.8 * kernel["wcc_recompute_ops"]
    assert kernel["pr_warm_iterations"] < kernel["pr_cold_iterations"]

#!/usr/bin/env python
"""CI smoke for the PEval/IncEval streaming mode (``repro.platforms
.vertex_centric.streaming`` + ``repro.bench.dynamic_exp``).

Runs short dynamic-workload cases — WCC and delta PageRank over a
bulk-loaded FFT-DG stream — and asserts the engine-level incremental
path holds its contract:

* every IncEval window prices cheaper than a cold recompute of the same
  program, and the summed speedup clears 3x;
* per-window result parity (bit-exact for WCC, certified tolerance for
  PR) — checked inside ``run_dynamic_case``, which raises on violation;
* a crash mid-stream leaves the state bit-identical to a failure-free
  twin and prices a replay of the windows since the last checkpoint.

Exits non-zero with a diagnostic on any violation.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.dynamic_exp import crash_replay_case, run_dynamic_case

NUM_BATCHES = 4
MIN_SPEEDUP = 3.0


def main() -> int:
    """Run the streaming smoke cases; return a process exit code."""
    failures: list[str] = []
    reports = {}
    for algorithm in ("wcc", "pr"):
        report = run_dynamic_case(algorithm, num_batches=NUM_BATCHES)
        reports[algorithm] = report
        if report.speedup < MIN_SPEEDUP:
            failures.append(
                f"{algorithm}: IncEval speedup {report.speedup:.1f}x "
                f"below {MIN_SPEEDUP}x"
            )
        slow = [
            w.window for w in report.windows
            if w.window > 0 and w.incremental_seconds >= w.recompute_seconds
        ]
        if slow:
            failures.append(
                f"{algorithm}: windows {slow} priced warm >= cold"
            )

    crash = crash_replay_case(
        "wcc", num_batches=NUM_BATCHES, crash_window=NUM_BATCHES - 1
    )
    if not crash["bit_identical"]:
        failures.append("crash replay did not recover bit-identically")
    if crash["replayed_windows"] < 1:
        failures.append("crash recovery replayed no windows")

    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    print(
        "dynamic smoke OK: "
        + ", ".join(
            f"{a} speedup {r.speedup:.1f}x ({r.windows[-1].parity})"
            for a, r in reports.items()
        )
        + f"; crash @window {crash['crash_window']} replayed "
        f"{crash['replayed_windows']} window(s) bit-identically"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

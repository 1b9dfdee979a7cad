"""Compare two run sets written by ``run.py --json``.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the baseline, B the candidate.  One row per workload x end-to-end
metric: median and quartiles over the runs of each set, and a verdict
from the bounds in ``BENCHMARK.json``:

* ``worse``       B's median is worse than A's by more than the bound;
* ``better``      every run of B beats every run of A, or B's median is
                  better by more than A's own inter-quartile distance;
* ``same``        neither, and both sets are steadier than the bound;
* ``unresolved``  run-to-run spread (inter-quartile distance over the
                  median, either set) exceeds the bound, or the runs were
                  taken on fewer than 2 cores where the workload needs 2.

Failed operations are compared as a share of those attempted: any
increase is ``worse``.  Simulated totals (per-layer metrics with
``.sim_`` in the name, from traced runs) are compared exactly: any
difference is ``drift``, not speed.  Exits 1 on any ``worse`` or
``drift``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from common import REPO


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    """(workload, trace) -> runs."""
    grouped: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for run in json.loads(Path(path).read_text())["runs"]:
        grouped[(run["workload"], run["trace"])].append(run)
    return grouped


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    spread = max((a3 - a1) / abs(am), (b3 - b1) / abs(bm))
    worse_by = sign * (bm - am) / abs(am)
    b_beats_a = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if b_beats_a:
        return "better"
    if spread > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by * abs(am) > a3 - a1:
        return "better"
    return "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    a_runs, b_runs = load(argv[0]), load(argv[1])
    bad = 0
    print(f"{'workload':<15} {'metric':<14} {'A q1/median/q3':<34} "
          f"{'B q1/median/q3':<34} {'change':>8}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = a_runs.get((workload, 0)), b_runs.get((workload, 0))
        if not a or not b:
            continue
        unresolved = any(r["unresolved"] for r in a + b)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            av = [r["metrics"][name]["value"] for r in a]
            bv = [r["metrics"][name]["value"] for r in b]
            result = ("unresolved" if unresolved else
                      verdict(av, bv, metric["better"], metric["bound"]))
            bad += result == "worse"
            aq, bq = quartiles(av), quartiles(bv)
            print(f"{workload:<15} {name:<14} "
                  f"{'/'.join(f'{v:.5g}' for v in aq):<34} "
                  f"{'/'.join(f'{v:.5g}' for v in bq):<34} "
                  f"{100 * (bq[1] - aq[1]) / abs(aq[1]):>+7.1f}%  {result}")
        a_failed = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        b_failed = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        result = "worse" if b_failed > a_failed else "same"
        bad += result == "worse"
        print(f"{workload:<15} {'failed_share':<14} {a_failed:<34.6g} "
              f"{b_failed:<34.6g} {'':>8}  {result}")

    for workload in (w["name"] for w in spec["workloads"]):
        a, b = a_runs.get((workload, 1)), b_runs.get((workload, 1))
        if not a or not b:
            continue
        for metric in spec["per_layer"]:
            name = metric["name"]
            if ".sim_" not in name:
                continue
            seen = {r["metrics"][name]["value"] for r in a + b}
            result = "same" if len(seen) == 1 else "drift"
            bad += result == "drift"
            print(f"{workload:<15} {name:<30} "
                  f"{sorted(seen)}  {result}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

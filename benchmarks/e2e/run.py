"""End-to-end wall-clock benchmark of the harness.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N] [--traced]
                                  [--smoke] [--json OUT] [--record-golden]

Runs the named workloads (default: all four) through the system's public
surfaces, prints every metric by name with its unit, checks the outputs,
and ends each workload with one JSON line ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer metrics from a traced
in-process re-drive.  All numbers are **host** wall-clock unless the
name contains ``sim``.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import (
    DEFAULT_SEED, OUT, REPO, SRC, Checked, Context, Pass, add_src_to_path,
    percentile, save_golden,
)

#: Each workload ``a-b`` lives in module ``a_b`` beside this file.
WORKLOADS = ("fig10-cli", "s9-pooled", "served-zipf", "stream-windows")
NEEDS_TWO_CORES = ("s9-pooled", "served-zipf")


def declared() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def environment(seed: int) -> dict:
    import numpy

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # an exported checkout is not a git repository
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu_model,
        "seed": seed,
    }


def end_to_end(module, setup: list[float], passes: list[Pass]) -> dict[str, float]:
    """The eight end-to-end metrics: medians over passes, percentiles
    over the per-operation latencies of all passes together."""
    latencies = [ms for one in passes for ms in one.latencies_ms]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mib": statistics.median(p.peak_rss_mib for p in passes),
        "ops_per_s": statistics.median(p.ops / p.ops_s for p in passes),
        "edges_per_s": statistics.median(p.edges / p.wall_s for p in passes),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": percentile(latencies, module.TAIL_Q),
    }


def run_workload(name: str, args, env: dict) -> dict:
    module = importlib.import_module(name.replace("-", "_"))
    spec = declared()
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"run-{name}-", dir=OUT))
    ctx = Context(seed=args.seed, tmp=tmp, smoke=args.smoke,
                  record_golden=args.record_golden)
    try:
        setup = module.setup_samples(ctx)
        passes: list[Pass] = []
        begun = time.perf_counter()
        while True:
            started = time.perf_counter()
            passes.append(module.run_pass(ctx))
            last = time.perf_counter() - started
            # Another whole pass only if it should end inside the box;
            # the traced run needs one untraced pass to compare with.
            if args.trace or time.perf_counter() - begun + last > args.seconds:
                break
        setup += [s for one in passes for s in one.setup_s]

        started = time.perf_counter()
        checked: Checked = module.check(ctx, passes)
        check_s = time.perf_counter() - started
        if args.record_golden and checked.failed == 0:
            save_golden(name, module.golden_payload(ctx, passes))

        e2e = end_to_end(module, setup, passes)
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            traced = module.traced(ctx, tracer, passes[0], e2e["setup_s"])
            tracer.write(OUT / f"trace-{name}.jsonl")
            values = dict(traced.metrics)
            values["bench.trace_overhead_share"] = (
                traced.wall_s - e2e["wall_s"]
            ) / e2e["wall_s"]
            values["bench.trace_accounted_share"] = traced.accounted_share
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            unknown = sorted(set(values) - set(units))
            if unknown:
                raise RuntimeError(f"undeclared per-layer metrics: {unknown}")
            # A layer this workload never enters did no work: 0.
            metrics = {n: float(values.get(n, 0.0)) for n in units}
        else:
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            metrics = e2e
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    unresolved = name in NEEDS_TWO_CORES and env["nproc"] < 2
    print(f"== {name} (seed {args.seed}, {len(passes)} pass(es), "
          f"{checked.attempted} {module.OP}) ==")
    for metric, value in metrics.items():
        shown = "unresolved (needs 2 cores)" if unresolved else f"{value:.6g}"
        print(f"{metric:<44} {shown} {units[metric]}")
    print(f"{'check_s':<44} {check_s:.6g} s")
    print(f"{'failed_share':<44} {checked.failed / checked.attempted:.6g} ratio"
          f"  ({checked.failed} of {checked.attempted} {module.OP})")
    for problem in checked.problems:
        print(f"  ! {problem}")
    result = {
        "correct": checked.failed == 0,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {
            n: {"value": v, "unit": units[n]} for n, v in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return {
        "workload": name, "seed": args.seed, "trace": int(args.trace),
        "smoke": args.smoke, "passes": len(passes), "unresolved": unresolved,
        "op_counts": {module.OP: checked.attempted}, **result,
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter,
    )
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time box for repeated passes (default: "
                             "run_seconds of BENCHMARK.json); one pass "
                             "always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, same code paths (< 20 s in all)")
    parser.add_argument("--json", metavar="OUT",
                        help="append this invocation's runs, with the "
                             "environment block, to the run set in OUT")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden/ from this run's outputs")
    args = parser.parse_args()

    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(declared()["run_seconds"])
    add_src_to_path()
    env = environment(args.seed)
    print("environment: " + json.dumps(env))
    runs = [run_workload(name, args, env)
            for name in (args.workload or WORKLOADS)]
    if args.json:
        path = Path(args.json)
        document = (json.loads(path.read_text()) if path.exists()
                    else {"runs": []})
        document["runs"] += [{"environment": env, **run} for run in runs]
        path.write_text(json.dumps(document, indent=1) + "\n")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Workload ``s9-pooled``: a large-graph batch through ``repro.api``.

One pass is a fresh process calling ``repro.api.run_sync(..., jobs=2)``
against an empty ``ArtifactStore`` in the run's temp dir: 19 bulk-kernel
cases on S9-Std (see ``child.S9_MATRIX``), all ``ok``.  The timed region
is the ``run_sync`` call, dataset build included: cold is what users
pay.  Numpy kernels, FFT-DG + CSR build, the dataset pickle through the
store, worker start-up and outcome shipping all do real work here, and
per-case fixed overhead is negligible.  ``--seed`` drives the submission
order, which decides which worker gets which case.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from child import S9_DATASET, s9_cases, trace_totals
from common import (
    HERE, JOBS, Checked, Context, Pass, Traced, golden_for, load_golden,
    python_argv, run_child,
)

NAME = "s9-pooled"
OP = "cases"
TAIL_Q = 100

#: S9-Std at /1000 is 27 200 vertices and 267 k edges: one pass takes
#: about 7 s here, so three fit in the time box and wall time is a median.
SCALE_DIVISOR = {False: 1000, True: 20000}
SETUP_REPEATS = 5
CHILD = str(HERE / "child.py")
TRACE_TOTALS = ("supersteps", "ops", "messages", "message_bytes")


def setup_samples(ctx: Context) -> list[float]:
    """Interpreter start + the imports the pass needs."""
    return [
        run_child(python_argv(CHILD, "imports"), ctx.tmp, "imports").wall_s
        for _ in range(SETUP_REPEATS)
    ]


def _golden(ctx: Context) -> dict | None:
    return golden_for(ctx, NAME, SCALE_DIVISOR[ctx.smoke])


def run_pass(ctx: Context) -> Pass:
    store = ctx.tmp / f"s9-store-{time.monotonic_ns()}"
    argv = python_argv(
        CHILD, "s9-pooled", "--seed", str(ctx.seed),
        "--divisor", str(SCALE_DIVISOR[ctx.smoke]),
        "--jobs", str(JOBS), "--store", str(store),
    )
    # The LPA reference kernel is a sequential Python loop (4 s at this
    # size, most of a pass), so it runs only when there is no recorded
    # digest of its output to compare with, or when recording one.
    if _golden(ctx) is None:
        argv.append("--full-reference")
    usage = run_child(argv, ctx.tmp, "s9-pooled pass")
    body = json.loads(usage.stdout.splitlines()[-1])
    ok = [c for c in body["cases"] if c["status"] == "ok"]
    return Pass(
        wall_s=body["wall_s"],
        cpu_s=body["cpu_s"],
        peak_rss_mib=body["peak_rss_mib"],
        ops=len(body["cases"]),
        ops_s=body["wall_s"],
        edges=len(ok) * body["edges_per_case"],
        # One request, one reply: every case's result arrives with it.
        latencies_ms=[body["wall_s"] * 1e3],
        detail=body,
    )


def golden_payload(ctx: Context, passes: list[Pass]) -> dict:
    golden = load_golden(NAME)
    golden[str(SCALE_DIVISOR[ctx.smoke])] = {
        case["key"]: {k: case[k] for k in (*TRACE_TOTALS, "values_sha256")}
        for case in passes[0].detail["cases"]
    }
    return golden


def check(ctx: Context, passes: list[Pass]) -> Checked:
    """A case fails when it is not ``ok``, its integer trace totals
    differ from golden, or its values miss the reference kernel (exact
    for wcc/lpa, ``allclose`` for pr/sssp)."""
    golden = _golden(ctx)
    expected = set(f"{p}/{a}" for p, a in s9_cases(ctx.seed))
    problems: list[str] = []
    failed = 0
    for number, one in enumerate(passes):
        seen = set()
        for case in one.detail["cases"]:
            seen.add(case["key"])
            why = None
            if case["status"] != "ok":
                why = f"status {case['status']}"
            elif case.get("values_ok") is False:
                why = "values miss the reference kernel"
            elif golden is not None:
                want = golden.get(case["key"], {})
                drift = [k for k in TRACE_TOTALS if case[k] != want.get(k)]
                if drift:
                    why = "trace totals differ from golden: " + ", ".join(drift)
                elif ("values_ok" not in case
                      and case["values_sha256"] != want.get("values_sha256")):
                    why = "values differ from the recorded reference output"
            if why:
                failed += 1
                problems.append(f"pass {number}: {case['key']}: {why}")
        failed += len(expected - seen)
    return Checked(len(expected) * len(passes), failed, problems[:20])


def traced(ctx: Context, tracer, untraced: Pass, setup_s: float) -> Traced:
    """The same 19 cases in this process, sequentially: the per-layer
    split and the single-process baseline the pool is compared with."""
    from layers import CaseTotals, drive_case

    from repro import api
    from repro.bench.store import ArtifactStore
    from repro.core import Graph
    from repro.datagen import build_dataset
    from repro.service import SubmitRequest

    divisor = SCALE_DIVISOR[ctx.smoke]
    totals = CaseTotals()
    driven = []
    with tracer.span("workload", "benchmark", trace=NAME) as root:
        for number, (platform, algorithm) in enumerate(s9_cases(ctx.seed)):
            driven.append(drive_case(
                tracer, totals, platform, algorithm, S9_DATASET, divisor,
                first_build=number == 0,
            ))
    out = totals.metrics()
    # Drift: a case whose integer trace totals differ from what the
    # pooled pass reported for it.
    pooled_totals = {
        c["key"]: [c.get(k) for k in TRACE_TOTALS]
        for c in untraced.detail["cases"]
    }
    out["cluster.sim_drift_rows"] = sum(
        1 for case, (platform, algorithm) in zip(driven, s9_cases(ctx.seed))
        if case.result is None
        or list(trace_totals(case.result.trace).values())
        != pooled_totals.get(f"{platform}/{algorithm}")
    )

    pooled = untraced.wall_s
    out["bench.pool.speedup_vs_direct"] = root.duration / pooled
    out["bench.pool.efficiency"] = totals.layers_s / (JOBS * pooled)
    out["bench.runner.overhead_s"] = pooled - totals.layers_s / JOBS

    with tracer.span("probes", "benchmark", trace="probes"):
        instance = build_dataset(S9_DATASET, scale_divisor=divisor)
        graph = instance.graph
        with tracer.span("csr_build", "core") as span:
            src, dst, weights = graph.edge_arrays()
            Graph.from_edges(src, dst, weights=weights,
                             num_vertices=graph.num_vertices,
                             directed=graph.directed)
        out["core.csr_build_s"] = span.duration

        # The store on the workload's own artifacts: every ok result,
        # and the dataset instance the workers share through it.
        root_dir = Path(ctx.tmp) / "s9-probe-store"
        store = ArtifactStore(root_dir)
        results = [c for c in driven if c.result is not None]
        with tracer.span("store.put", "bench.store") as span:
            for case in results:
                store.put("case", ("e2e", case.key), case.result)
        out["bench.store.put_s"] = span.duration
        with tracer.span("store.get", "bench.store") as span:
            for case in results:
                store.get("case", ("e2e", case.key))
        out["bench.store.get_s"] = span.duration
        with tracer.span("store.dataset_put", "bench.store") as span:
            store.put("dataset", ("e2e", S9_DATASET), instance)
        out["bench.store.dataset_put_s"] = span.duration
        with tracer.span("store.dataset_get", "bench.store") as span:
            store.get("dataset", ("e2e", S9_DATASET))
        out["bench.store.dataset_get_s"] = span.duration
        out["bench.store.bytes"] = sum(
            f.stat().st_size for f in root_dir.rglob("*.pkl")
        )

        # Two trivial cases through a 2-wide pool: what starting and
        # feeding the workers costs when the engines do next to nothing.
        trivial = SubmitRequest(
            tenant="e2e",
            cases=(api.case("Flash", "wcc", "S8-Std", scale_divisor=20000),
                   api.case("Ligra", "wcc", "S8-Std", scale_divisor=20000)),
        )
        with tracer.span("pool.spawn", "bench.pool") as span:
            api.run_sync(trivial, jobs=JOBS)
        out["bench.pool.spawn_s"] = span.duration
    return Traced(out, root.duration, tracer.accounted_share(root))

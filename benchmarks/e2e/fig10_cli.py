"""Workload ``fig10-cli``: the paper's Fig. 10 matrix through the CLI.

One pass is ``repro-bench fig10 --scale-divisor D --no-cache`` in a
fresh process at the default ``jobs=1``: 7 platforms x 8 algorithms x
{S8-Std, S8-Dense, S8-Diam} = 168 rows, timed from process spawn to
exit (the rendered table is the last thing the process writes).  The
graphs are small, so per-case and per-superstep Python overhead and the
scalar-only programs dominate; pool, store and service do nothing here.
``--seed`` is ignored: this is the paper's fixed matrix.
"""

from __future__ import annotations

import re
import statistics
import time

from common import (
    Checked, Context, Pass, Traced, cli_argv, dataset_edges, golden_for,
    load_golden, run_child,
)

NAME = "fig10-cli"
OP = "rows"
TAIL_Q = 100

#: Half the size of the CLI's default (2000): one pass takes about 6 s
#: here, so three or four fit in the time box and wall time is a median.
#: Sizes shrink the graphs, never the 168-case matrix.
SCALE_DIVISOR = {False: 4000, True: 20000}
SETUP_REPEATS = 5

DATASETS = ("S8-Std", "S8-Dense", "S8-Diam")
TITLE = "Fig. 10: running time of eight algorithms (simulated seconds)"
COLUMNS = ["Algo", "Platform", "Dataset", "Time (s)", "Note"]
RED_BAR = "red-bar(16m)"
EXPECTED_ROWS = 168


def parse_table(text: str) -> list[list[str]]:
    """Rows of the rendered Fig. 10 table as ``[algo, platform, dataset,
    time-or-status, note]``."""
    rows = []
    body = False
    for line in text.splitlines():
        if set(line.strip()) == {"-"}:
            body = True
            continue
        if body and line.strip():
            cells = re.split(r"\s{2,}", line.strip())
            rows.append((cells + [""])[:5])
    return rows


def setup_samples(ctx: Context) -> list[float]:
    """Interpreter start + CLI imports: ``repro-bench list``."""
    return [
        run_child(cli_argv("list"), ctx.tmp, "repro-bench list").wall_s
        for _ in range(SETUP_REPEATS)
    ]


def run_pass(ctx: Context) -> Pass:
    divisor = SCALE_DIVISOR[ctx.smoke]
    usage = run_child(
        cli_argv("fig10", "--scale-divisor", str(divisor), "--no-cache"),
        ctx.tmp, "repro-bench fig10",
    )
    rows = parse_table(usage.stdout)
    ok_edges = sum(
        dataset_edges(row[2], divisor) for row in rows
        if row[2] in DATASETS and _is_seconds(row[3])
    )
    return Pass(
        wall_s=usage.wall_s,
        cpu_s=usage.cpu_s,
        peak_rss_mib=usage.peak_rss_mib,
        ops=len(rows),
        ops_s=usage.wall_s,
        edges=ok_edges,
        # All rows are requested at spawn and delivered together at exit.
        latencies_ms=[usage.wall_s * 1e3],
        detail={"rows": rows},
    )


def _is_seconds(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def golden_payload(ctx: Context, passes: list[Pass]) -> dict:
    golden = load_golden(NAME)
    golden[str(SCALE_DIVISOR[ctx.smoke])] = passes[0].detail["rows"]
    return golden


def check(ctx: Context, passes: list[Pass]) -> Checked:
    """Every row present, and its status / simulated-seconds cell and
    note equal to the committed table.  ``unsupported`` and ``oom`` rows
    in that table are expected outcomes, not failures."""
    golden = golden_for(ctx, NAME, SCALE_DIVISOR[ctx.smoke])
    problems: list[str] = []
    failed = 0
    if golden is None:
        if not ctx.record_golden:
            problems.append("no golden table for this divisor; comparing "
                            "passes with each other only")
        golden = passes[0].detail["rows"]
        if len(golden) != EXPECTED_ROWS:
            failed += abs(EXPECTED_ROWS - len(golden))
            problems.append(f"{len(golden)} rows, expected {EXPECTED_ROWS}")
    want = {tuple(row[:3]): row[3:] for row in golden}
    for number, one in enumerate(passes):
        got = {tuple(row[:3]): row[3:] for row in one.detail["rows"]}
        for key, cells in want.items():
            if got.get(key) != cells:
                failed += 1
                problems.append(
                    f"pass {number}: {'/'.join(key)} is {got.get(key)}, "
                    f"golden {cells}"
                )
    return Checked(len(want) * len(passes), failed, problems[:20])


def traced(ctx: Context, tracer, untraced: Pass, setup_s: float) -> Traced:
    """Drive the same 168 cases in this process, one span per layer call."""
    from layers import ALGORITHMS, CaseTotals, drive_case

    from repro import api
    from repro.bench.reporting import render_table
    from repro.core import Graph
    from repro.datagen import build_dataset, clear_dataset_cache
    from repro.platforms import all_platforms
    from repro.service import SubmitRequest

    divisor = SCALE_DIVISOR[ctx.smoke]
    cli_rows = {tuple(r[:3]): r[3:] for r in untraced.detail["rows"]}
    # run_pass built these datasets in this process to count their
    # edges; the re-drive builds them cold, as the CLI's process does.
    clear_dataset_cache()
    totals = CaseTotals()
    rows = []
    built: set[str] = set()
    with tracer.span("workload", "benchmark", trace=NAME) as root:
        for dataset in DATASETS:
            for algorithm in ALGORITHMS:
                for platform in all_platforms():
                    cells = cli_rows.get(
                        (algorithm.upper(), platform.name, dataset), ["", ""]
                    )
                    case = drive_case(
                        tracer, totals, platform.name, algorithm, dataset,
                        divisor, red_bar=cells[1] == RED_BAR,
                        first_build=dataset not in built,
                    )
                    built.add(dataset)
                    rows.append([
                        algorithm.upper(), platform.name, dataset,
                        f"{case.sim_seconds:.2f}" if case.status == "ok"
                        else case.status,
                        cells[1],
                    ])
        with tracer.span("render_table", "bench.cli") as render:
            table = render_table(TITLE, COLUMNS, rows)
    out = totals.metrics()
    # Drift: a row the re-drive renders differently from the CLI.
    out["cluster.sim_drift_rows"] = sum(
        1 for row in parse_table(table)
        if cli_rows.get(tuple(row[:3])) != row[3:]
    )
    out["bench.cli.startup_s"] = setup_s
    out["bench.cli.render_s"] = render.duration
    out["bench.runner.overhead_s"] = untraced.wall_s - totals.layers_s

    with tracer.span("probes", "benchmark", trace="probes"):
        graphs = [build_dataset(dataset, scale_divisor=divisor).graph
                  for dataset in DATASETS]
        with tracer.span("csr_build", "core") as span:
            for graph in graphs:
                src, dst, weights = graph.edge_arrays()
                Graph.from_edges(src, dst, weights=weights,
                                 num_vertices=graph.num_vertices,
                                 directed=graph.directed)
        out["core.csr_build_s"] = span.duration
        request = SubmitRequest(
            tenant="e2e",
            cases=(api.case("Flash", "pr", "S8-Std", scale_divisor=divisor),),
        )
        api.run_sync(request, jobs=1)
        hits = []
        with tracer.span("memo_hit", "bench.runner"):
            for _ in range(200):
                started = time.perf_counter()
                api.run_sync(request, jobs=1)
                hits.append(time.perf_counter() - started)
        out["bench.runner.memo_hit_us"] = statistics.median(hits) * 1e6
    return Traced(out, root.duration, tracer.accounted_share(root))

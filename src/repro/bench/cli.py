"""``repro-bench`` command-line entry point.

Runs one (or all) of the paper's experiments and prints the
corresponding tables/series; results are also written under
``benchmarks/out/``.

    repro-bench list
    repro-bench table4
    repro-bench fig10 --scale-divisor 4000
    repro-bench fig10 --jobs 4                  # parallel case executor
    repro-bench fig10 --cache-dir ~/.cache/rb   # persistent artifact cache
    repro-bench timing --trace out.json   # Chrome/Perfetto trace
    repro-bench fig10 --profile bench.toml      # execution profile (TOML)
    repro-bench serve --port 8642 --jobs 4      # multi-tenant service
    repro-bench all

``--jobs N`` fans independent benchmark cases over N worker processes
(:mod:`repro.bench.pool`); ``--cache-dir`` makes built datasets and
finished case outcomes persist across invocations in a
content-addressed store (:mod:`repro.bench.store`).  Neither changes
any number in any table — outcomes are bit-identical to a sequential
cold run; see ``docs/benchmarking.md``.

Execution knobs resolve through one
:class:`~repro.bench.execprofile.ExecutionProfile` with precedence
``CLI > --profile TOML > defaults`` (see
``docs/service.md``).  ``serve`` starts the multi-tenant benchmark
service (:mod:`repro.service`) on ``--host``/``--port``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.bench import genquality, performance, selection, statics, usability_exp
from repro.bench.reporting import emit, render_series, render_table
from repro.usability.prompts import PromptLevel

__all__ = ["main"]


def _table2(args) -> None:
    emit("table02_popularity", render_table(
        "Table 2: algorithm popularity",
        ["Algorithm", "#Papers", "DBLP", "Scholar", "WoS"],
        statics.popularity_rows(),
    ))


def _table3(args) -> None:
    emit("table03_workload", render_table(
        "Table 3: workload and topics",
        ["Algorithm", "Workload", "Topic", "LDBC", "Ours"],
        statics.workload_rows(),
    ))


def _table4(args) -> None:
    emit("table04_datasets", render_table(
        "Table 4: synthetic datasets (paper vs scaled reproduction)",
        ["Dataset", "paper n", "paper m", "paper density", "paper diam",
         "n", "m", "density", "diam"],
        statics.dataset_rows(),
    ))


def _table8(args) -> None:
    graphs = genquality.build_similarity_graphs()
    table = genquality.similarity_table(graphs)
    rows = [
        [gen, *[round(v, 3) for v in row.values()],
         round(float(np.mean(list(row.values()))), 3)]
        for gen, row in table.items()
    ]
    emit("table08_divergence", render_table(
        "Table 8: JS divergence vs LiveJournal surrogate",
        ["Generator", "CC", "TPR", "BR", "Diam", "Cond", "Size", "Avg"],
        rows,
    ))


def _table9(args) -> None:
    graphs = genquality.build_similarity_graphs()
    sim = genquality.runtime_similarity(graphs)
    rows = []
    for algorithm, per_platform in sim.items():
        for platform, row in per_platform.items():
            rows.append([
                algorithm.upper(), platform,
                row["livejournal_s"], row["fft_s"], row["ldbc_s"],
                f"{row['fft_rel_diff']:.0%}", f"{row['ldbc_rel_diff']:.0%}",
            ])
    emit("table09_fig08_similarity", render_table(
        "Table 9 / Fig. 8: runtime similarity to LiveJournal",
        ["Algo", "Platform", "LJ (s)", "FFT (s)", "LDBC (s)",
         "FFT rel.diff", "LDBC rel.diff"],
        rows,
    ))


def _fig7(args) -> None:
    series = genquality.distribution_series()
    out = []
    for stat in ("cc", "tpr", "bridge_ratio", "diameter", "conductance", "size"):
        rows = [
            [name, values[stat].size,
             float(np.mean(values[stat])) if values[stat].size else 0.0,
             float(np.median(values[stat])) if values[stat].size else 0.0]
            for name, values in series.items()
        ]
        out.append(render_table(
            f"Fig. 7 ({stat}): community statistic distribution",
            ["Dataset", "#Communities", "Mean", "Median"],
            rows,
        ))
    emit("fig07_distributions", "\n".join(out))


def _fig9(args) -> None:
    rows = genquality.efficiency_sweep()
    emit("fig09_generator_efficiency", render_table(
        "Fig. 9: generator trials and throughput vs density factor",
        ["alpha", "FFT edges", "FFT trials/edge", "FFT edges/s",
         "LDBC edges", "LDBC trials/edge", "LDBC edges/s"],
        [[r["alpha"], r["fft_edges"], r["fft_trials_per_edge"],
          r["fft_edges_per_s"], r["ldbc_edges"],
          r["ldbc_trials_per_edge"], r["ldbc_edges_per_s"]] for r in rows],
    ))


def _fig10(args) -> None:
    divisor = getattr(args, "scale_divisor", None)
    outcomes = performance.algorithm_impact(scale_divisor=divisor)
    rows = []
    for oc in outcomes:
        time_s = f"{oc.seconds:.2f}" if oc.status == "ok" else oc.status
        rows.append([oc.algorithm.upper(), oc.platform, oc.dataset, time_s,
                     "red-bar(16m)" if oc.red_bar else ""])
    emit("fig10_algorithm_impact", render_table(
        "Fig. 10: running time of eight algorithms (simulated seconds)",
        ["Algo", "Platform", "Dataset", "Time (s)", "Note"],
        rows,
    ))


def _fig11(args) -> None:
    curves = performance.scale_up_curves()
    blocks = []
    for curve in curves:
        blocks.append(render_series(
            f"Fig. 11 scale-up: {curve.algorithm.upper()} {curve.platform} "
            f"{curve.dataset}",
            "threads", curve.xs, {"seconds": curve.seconds},
        ))
    table = performance.speedup_table(curves)
    rows = []
    for (algorithm, dataset), per_platform in table.items():
        for platform, speedup in per_platform.items():
            rows.append([algorithm.upper(), dataset, platform,
                         round(speedup, 1)])
    blocks.append(render_table(
        "Table 10: thread scale-up factors",
        ["Algo", "Dataset", "Platform", "Speedup"], rows,
    ))
    emit("fig11_table10_scaleup", "\n".join(blocks))


def _fig12(args) -> None:
    curves = performance.scale_out_curves()
    blocks = []
    for curve in curves:
        blocks.append(render_series(
            f"Fig. 12 scale-out: {curve.algorithm.upper()} {curve.platform} "
            f"{curve.dataset}",
            "machines", curve.xs, {"seconds": curve.seconds},
        ))
    table = performance.speedup_table(curves)
    rows = []
    for (algorithm, dataset), per_platform in table.items():
        for platform, speedup in per_platform.items():
            rows.append([algorithm.upper(), dataset, platform,
                         round(speedup, 1)])
    blocks.append(render_table(
        "Table 11: machine scale-out factors",
        ["Algo", "Dataset", "Platform", "Speedup"], rows,
    ))
    emit("fig12_table11_scaleout", "\n".join(blocks))


def _throughput(args) -> None:
    rows = performance.throughput_table()
    emit("throughput", render_table(
        "Throughput: edges/second on 16 machines",
        ["Platform", "Algo", "Dataset", "Status", "Edges/s"],
        [[r["platform"], r["algorithm"].upper(), r["dataset"], r["status"],
          r["edges_per_s"]] for r in rows],
    ))


def _timing(args) -> None:
    rows = performance.timing_breakdown_table()
    table_rows = []
    for r in rows:
        if r["status"] != "ok":
            table_rows.append([r["platform"], r["status"], "-", "-", "-"])
        else:
            table_rows.append([r["platform"], r["status"], r["upload_s"],
                               r["run_s"], r["makespan_s"]])
    emit("timing_breakdown", render_table(
        "Table 5 metrics: upload / run / makespan (PR on S8-Std)",
        ["Platform", "Status", "Upload (s)", "Run (s)", "Makespan (s)"],
        table_rows,
    ))


def _stress(args) -> None:
    results = performance.stress_test()
    datasets = ("S8-Std", "S9-Std", "S9.5-Std", "S10-Std")
    rows = [[name, *[row.get(d, "-") for d in datasets]]
            for name, row in results.items()]
    emit("stress_test", render_table(
        "Stress test: PR capacity per platform", ["Platform", *datasets], rows,
    ))


def _fig13(args) -> None:
    experiment = usability_exp.run_usability_experiment()
    blocks = []
    for level, scores in experiment.scores.items():
        rows = [[name, round(s.compliance, 1), round(s.correctness, 1),
                 round(s.readability, 1), round(s.overall, 1)]
                for name, s in scores.items()]
        blocks.append(render_table(
            f"Fig. 13 usability scores ({level.name})",
            ["Platform", "Compliance", "Correctness", "Readability",
             "Overall"], rows,
        ))
    rows = [[level.name, round(v.rho, 3)]
            for level, v in experiment.validations.items()]
    blocks.append(render_table(
        "Table 12: Spearman's rho vs the human panel",
        ["Level", "rho"], rows,
    ))
    emit("fig13_table12_usability", "\n".join(blocks))


def _table1(args) -> None:
    from repro.bench.landscape import run_landscape

    profiles = run_landscape()
    rows = []
    for p in profiles:
        sample = "; ".join(f"{k}={v:.4g}" for k, v in p.sample.items())
        rows.append([p.name, p.workloads, p.controls,
                     "LLM-based" if p.usability_axis else "-", sample])
    emit("table01_landscape", render_table(
        "Table 1: benchmark landscape, with a measured sample per "
        "benchmark (platform: Flash, dataset: S8-Std)",
        ["Benchmark", "Core workloads", "Dataset controls",
         "Usability", "Measured sample"],
        rows,
    ))


def _dynamic(args) -> None:
    from repro.bench.dynamic_exp import (
        STREAM_ALGORITHMS,
        crash_replay_case,
        run_dynamic_case,
    )

    profile = getattr(args, "exec_profile", None)
    batches = profile.dynamic_batches if profile else 8
    batch_edges = profile.dynamic_batch_edges if profile else 50
    rows = []
    for algorithm in STREAM_ALGORITHMS:
        report = run_dynamic_case(
            algorithm, num_batches=batches, batch_edges=batch_edges
        )
        rows.append([
            algorithm.upper(),
            len(report.windows) - 1,
            round(report.incremental_seconds, 3),
            round(report.recompute_seconds, 3),
            round(report.speedup, 1),
            report.windows[-1].parity,
        ])
    blocks = [render_table(
        "WGB-style dynamic workload: PEval/IncEval vs per-window "
        f"recompute ({batches} windows x {batch_edges} edges, "
        "bulk-loaded FFT-DG stream)",
        ["Algo", "Windows", "IncEval (s)", "Recompute (s)", "Speedup",
         "Parity"],
        rows,
    )]
    crash = crash_replay_case(
        "wcc",
        num_batches=batches,
        batch_edges=batch_edges,
        crash_window=min(5, batches),
    )
    blocks.append(render_table(
        "Crash mid-stream: checkpoint + update-log replay (WCC)",
        ["Crash window", "Replayed windows", "Recovery (s)",
         "Bit-identical"],
        [[crash["crash_window"], crash["replayed_windows"],
          round(crash["recovery_seconds"], 3),
          str(crash["bit_identical"])]],
    ))
    emit("dynamic_workload", "\n".join(blocks))


def _graph500(args) -> None:
    from repro.bench.graph500 import run_graph500

    runs = run_graph500()
    emit("graph500", render_table(
        "Mini Graph500: validated BFS TEPS on a Kronecker graph "
        "(Table 1's comparison benchmark, made runnable)",
        ["Platform", "Scale", "Roots", "Harmonic-mean TEPS", "Mean s"],
        [r.as_row() for r in runs],
    ))


def _ablations(args) -> None:
    from repro.bench import ablations

    blocks = []
    suites = ablations.suite_diversity()
    blocks.append(render_table(
        "Ablation: suite diversity (LDBC's six vs our eight, Section 3)",
        ["Suite", "Algorithms", "Topics", "Linear fraction",
         "Workload dynamic range"],
        [[name, row["algorithms"], row["topics"],
          row["linear_fraction"], row["workload_dynamic_range"]]
         for name, row in suites.items()],
    ))
    comb = ablations.combiner_ablation()
    blocks.append(render_table(
        "Ablation: Pregel+ message combiner (PR on S9-Std)",
        ["Variant", "Messages", "Bytes", "16-machine time (s)"],
        [[name, row["messages"], row["message_bytes"],
          row["seconds_16_machines"]] for name, row in comb.items()],
    ))
    subset = ablations.vertex_subset_ablation()
    blocks.append(render_table(
        "Ablation: Flash vertex subsets (CD on S8-Std)",
        ["Variant", "Compute ops", "Seconds", "Supersteps"],
        [[name, row["compute_ops"], row["seconds"], row["supersteps"]]
         for name, row in subset.items()],
    ))
    blocks.append(render_table(
        "Ablation: density factor (edges vs alpha)",
        ["alpha", "edges"],
        [[r["alpha"], r["edges"]]
         for r in ablations.density_factor_curve()],
    ))
    blocks.append(render_table(
        "Ablation: diameter control (diameter vs group count)",
        ["group_count", "diameter"],
        [[r["group_count"], r["diameter"]]
         for r in ablations.diameter_control_curve()],
    ))
    cuts = ablations.partition_ablation()
    blocks.append(render_table(
        "Ablation: partition locality (cut fraction, S9-Std)",
        ["Strategy", "Cut fraction"],
        [["range (block)", cuts["range_cut_fraction"]],
         ["hash", cuts["hash_cut_fraction"]]],
    ))
    emit("ablations", "\n".join(blocks))


def _faults(args) -> None:
    from repro.bench import faults_exp

    blocks = []
    overhead = faults_exp.checkpoint_overhead_curve()
    blocks.append(render_table(
        "Faults: checkpoint overhead (Pregel+ PR on S8-Std, 4 machines, "
        "no crash)",
        ["Interval", "Checkpoints", "Checkpoint (s)", "Total (s)",
         "Overhead (%)"],
        [[r["interval"], r["checkpoints"], round(r["checkpoint_s"], 4),
          round(r["total_s"], 3), round(r["overhead_pct"], 2)]
         for r in overhead],
    ))
    recovery = faults_exp.recovery_time_curve()
    blocks.append(render_table(
        "Faults: recovery time (crash at superstep 5, machine 1)",
        ["Interval", "Replayed", "Checkpoint (s)", "Recovery (s)",
         "Total (s)", "Failure-free (s)"],
        [[r["interval"], r["replayed_steps"], round(r["checkpoint_s"], 4),
          round(r["recovery_s"], 3), round(r["total_s"], 3),
          round(r["failure_free_s"], 3)]
         for r in recovery],
    ))
    emit("faults", "\n".join(blocks))


def _fig14(args) -> None:
    guide = selection.build_selection_guide()
    rows = [
        [name, *[round(guide.metrics[name][m], 2)
                 for m in selection.FIG14_METRICS],
         round(guide.area(name), 3)]
        for name in guide.ranking
    ]
    emit("fig14_selection_guide", render_table(
        "Fig. 14: comprehensive comparison (ranking best-first)",
        ["Platform", *selection.FIG14_METRICS, "Area"], rows,
    ))


_COMMANDS = {
    "table1": _table1,
    "table2": _table2,
    "table3": _table3,
    "table4": _table4,
    "table8": _table8,
    "table9": _table9,
    "fig7": _fig7,
    "fig9": _fig9,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
    "throughput": _throughput,
    "timing": _timing,
    "stress": _stress,
    "fig13": _fig13,
    "fig14": _fig14,
    "ablations": _ablations,
    "faults": _faults,
    "graph500": _graph500,
    "dynamic": _dynamic,
}


def main(argv: list[str] | None = None) -> int:
    """CLI dispatch; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[*_COMMANDS, "all", "list", "serve"],
        help="which artifact to regenerate, or 'serve' to start the "
             "multi-tenant benchmark service",
    )
    parser.add_argument(
        "--scale-divisor",
        type=int,
        default=None,
        help="override the dataset down-scaling factor "
             "(default 2000; smaller = bigger graphs)",
    )
    parser.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help="TOML execution profile supplying the knobs below; "
             "precedence is CLI > profile > defaults",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record an observability trace of the run: Chrome-trace "
             "JSON (open in chrome://tracing or Perfetto), or JSONL "
             "when PATH ends in .jsonl; a text summary tree goes to "
             "stderr (see docs/observability.md)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="fan independent benchmark cases over N worker processes "
             "(default 1 = sequential; for 'serve', the executor "
             "width); outcomes are bit-identical at any N",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="persistent content-addressed artifact cache shared across "
             "processes and invocations (default: no persistence)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent artifact cache even if --cache-dir "
             "or the profile sets one",
    )
    parser.add_argument(
        "--dataset-cache-size",
        type=int,
        default=None,
        metavar="N",
        help="in-process dataset lru_cache size (default 32)",
    )
    parser.add_argument(
        "--dynamic-batches",
        type=int,
        default=None,
        metavar="N",
        help="dynamic: incremental windows per stream (default 8)",
    )
    parser.add_argument(
        "--dynamic-batch-edges",
        type=int,
        default=None,
        metavar="N",
        help="dynamic: edges per incremental window (default 50)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve: interface to bind (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8642,
        metavar="N",
        help="serve: TCP port to bind (default 8642; 0 = ephemeral)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in _COMMANDS:
            print(name)
        return 0

    from repro.bench.execprofile import resolve_profile
    from repro.errors import ExecutionProfileError

    try:
        profile = resolve_profile(
            {
                "jobs": args.jobs,
                "cache_dir": args.cache_dir,
                "no_cache": args.no_cache,
                "dataset_cache_size": args.dataset_cache_size,
                "trace": args.trace,
                "dynamic_batches": args.dynamic_batches,
                "dynamic_batch_edges": args.dynamic_batch_edges,
            },
            profile_path=args.profile,
        )
    except ExecutionProfileError as exc:
        raise SystemExit(f"repro-bench: {exc}") from None
    args.exec_profile = profile

    store = _configure_harness(profile)
    try:
        if args.experiment == "serve":
            code = _serve(args, profile)
        elif profile.trace is None:
            code = _dispatch(args)
        else:
            from repro import obs

            with obs.tracing() as tracer:
                code = _dispatch(args)
            path = Path(profile.trace)
            if path.suffix == ".jsonl":
                path.write_text(obs.to_jsonl(tracer), encoding="utf-8")
            else:
                path.write_text(obs.chrome_trace_json(tracer),
                                encoding="utf-8")
            print(obs.summary_tree(tracer), file=sys.stderr)
            print(f"trace written to {path}", file=sys.stderr)
    finally:
        _teardown_harness(store)
    return code


def _serve(args, profile) -> int:
    """Run the multi-tenant benchmark service until a shutdown op."""
    import asyncio

    from repro.service.server import run_service

    asyncio.run(run_service(jobs=profile.jobs, host=args.host, port=args.port))
    return 0


def _configure_harness(profile):
    """Install the resolved execution profile for this run.

    Takes an :class:`~repro.bench.execprofile.ExecutionProfile` and
    returns the installed :class:`~repro.bench.store.ArtifactStore` (or
    ``None``) so :func:`main` can print its stats line and uninstall it.
    """
    from repro.bench import pool, store as store_mod
    from repro.datagen.catalog import set_dataset_cache_size

    pool.set_default_jobs(profile.jobs)
    if profile.dataset_cache_size is not None:
        set_dataset_cache_size(profile.dataset_cache_size)
    store = None
    if profile.no_cache:
        # Also drop any ambient store installed by embedding code: the
        # run must be cache-free, and teardown must not print a stats
        # line (previously one with all-zero counters could appear).
        store_mod.set_artifact_store(None)
    elif profile.cache_dir:
        store = store_mod.ArtifactStore(profile.cache_dir)
        store_mod.set_artifact_store(store)
    return store


def _teardown_harness(store) -> None:
    """Print cache stats, then restore the sequential no-store defaults."""
    from repro.bench import pool, store as store_mod

    if store is not None:
        stats = store.stats()
        print(
            f"cache: dir={store.root} hits={stats['hits']} "
            f"misses={stats['misses']} puts={stats['puts']}",
            file=sys.stderr,
        )
        store_mod.set_artifact_store(None)
    pool.set_default_jobs(1)


def _dispatch(args) -> int:
    """Run the selected experiment(s); returns a process exit code."""
    if args.experiment == "all":
        for name, fn in _COMMANDS.items():
            print(f"### {name}", file=sys.stderr)
            fn(args)
        return 0
    _COMMANDS[args.experiment](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())

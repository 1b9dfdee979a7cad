"""Workload ``stream-windows``: PEval + IncEval over an edge stream.

Set-up generates an FFT-DG edge stream with 90 % of the edges bulk-loaded
into window 0.  Timed: for each of pr, sssp, wcc, lpa one
``StreamingSession``, PEval on window 0, then IncEval on the following
windows through ``process_window``.  This is the vertex-centric engine of
``s9-pooled`` used the other way round: a warm resume on a frontier of a
few hundred vertices instead of full sweeps, plus ``DeltaCSR``
``apply_batch``/``rebase`` every window, so a bulk-sweep optimisation
that taxes small frontiers (or the reverse) moves the two workloads in
opposite directions.  ``--seed`` drives which of the not yet loaded edges
arrive in which window; the graph itself is the same for every seed.
"""

from __future__ import annotations

import json
import statistics

from child import STREAM_ALGORITHMS, make_stream, stream_batches
from common import (
    DEFAULT_SEED, HERE, Checked, Context, Pass, Traced, golden_for,
    load_golden, python_argv, run_child,
)

NAME = "stream-windows"
OP = "windows"
TAIL_Q = 90

#: 6 000 vertices is ~0.24 M edges, 90 % of them in window 0; 500 edges
#: arrive per IncEval window.  One pass takes about 7 s here, so three fit
#: in the time box.
SIZES = {
    False: {"vertices": 6000, "edges_per_batch": 500, "windows": 12},
    True: {"vertices": 600, "edges_per_batch": 50, "windows": 3},
}
CHILD = str(HERE / "child.py")
WINDOW_INTS = ("new_edges", "frontier_size", "supersteps")


def setup_samples(ctx: Context) -> list[float]:
    """Set-up (stream generation) happens inside each session's process."""
    return []


def run_pass(ctx: Context) -> Pass:
    """The four sessions, one after the other, each in its own process."""
    sizes = SIZES[ctx.smoke]
    sessions = {}
    for algorithm in STREAM_ALGORITHMS:
        usage = run_child(
            python_argv(
                CHILD, "stream-session", "--algorithm", algorithm,
                "--seed", str(ctx.seed),
                "--vertices", str(sizes["vertices"]),
                "--edges-per-batch", str(sizes["edges_per_batch"]),
                "--windows", str(sizes["windows"]),
            ),
            ctx.tmp, f"stream-windows {algorithm} session",
        )
        sessions[algorithm] = json.loads(usage.stdout.splitlines()[-1])
    windows = [w for body in sessions.values() for w in body["windows"]]
    inceval = [w for w in windows if w["mode"] == "inceval"]
    # Latency is per stream window, summed over the four sessions: the
    # time until every maintained result has absorbed that batch.  The
    # single windows fall into four far-apart clusters (pr ~200 ms, lpa
    # ~25 ms, sssp/wcc ~8 ms) of equal size, so their median sits on the
    # gap between two clusters and jumps from run to run.
    rounds: dict[int, float] = {}
    for w in inceval:
        rounds[w["window"]] = rounds.get(w["window"], 0.0) + w["host_s"]
    return Pass(
        wall_s=sum(w["host_s"] for w in windows),
        cpu_s=sum(body["cpu_s"] for body in sessions.values()),
        peak_rss_mib=max(body["peak_rss_mib"] for body in sessions.values()),
        ops=len(inceval),
        ops_s=sum(w["host_s"] for w in inceval),
        edges=sum(w["new_edges"] for w in windows),
        latencies_ms=[s * 1e3 for s in rounds.values()],
        detail={
            "windows": windows,
            "values_ok": {a: body["values_ok"] for a, body in sessions.items()
                          if "values_ok" in body},
            "values_sha256": {a: body["values_sha256"]
                              for a, body in sessions.items()},
        },
        setup_s=[body["setup_s"] for body in sessions.values()],
    )


def _golden(ctx: Context) -> dict | None:
    if ctx.seed != DEFAULT_SEED:
        return None
    return golden_for(ctx, NAME, _size_key(ctx))


def _size_key(ctx: Context) -> str:
    sizes = SIZES[ctx.smoke]
    return "{vertices}x{edges_per_batch}x{windows}".format(**sizes)


def _window_ints(body: dict) -> dict[str, list[int]]:
    return {
        f"{w['algorithm']}/{w['window']}": [w[k] for k in WINDOW_INTS]
        for w in body["windows"]
    }


def golden_payload(ctx: Context, passes: list[Pass]) -> dict:
    golden = load_golden(NAME)
    golden[_size_key(ctx)] = {
        "seed": ctx.seed,
        "windows": _window_ints(passes[0].detail),
        "values_sha256": passes[0].detail["values_sha256"],
    }
    return golden


def check(ctx: Context, passes: list[Pass]) -> Checked:
    """A window fails when its ``new_edges``/``frontier_size``/
    ``supersteps`` differ from golden (default seed) or from the first
    pass (any seed); every window of a session fails when the session's
    final wcc/sssp values miss the reference kernel."""
    golden = _golden(ctx)
    want = golden["windows"] if golden else _window_ints(passes[0].detail)
    problems: list[str] = []
    failed = 0
    for number, one in enumerate(passes):
        got = _window_ints(one.detail)
        bad_sessions = {a for a, ok in one.detail["values_ok"].items() if not ok}
        for algorithm in sorted(bad_sessions):
            problems.append(
                f"pass {number}: final {algorithm} values miss the reference"
            )
        for key, ints in want.items():
            if got.get(key) != ints:
                failed += 1
                problems.append(
                    f"pass {number}: window {key} is {got.get(key)}, "
                    f"expected {ints}"
                )
            elif key.split("/")[0] in bad_sessions:
                failed += 1
    return Checked(len(want) * len(passes), failed, problems[:20])


def traced(ctx: Context, tracer, untraced: Pass, setup_s: float) -> Traced:
    """The same sessions in this process; every window's
    ``process_window`` is a span, and a twin ``DeltaCSR`` cursor replays
    the batch so the overlay's share of the window is known."""
    from repro.core import DeltaCSR
    from repro.platforms.vertex_centric.streaming import StreamingSession

    sizes = SIZES[ctx.smoke]
    layer = "platforms.vertex_centric.streaming"
    with tracer.span("generate_stream", "datagen", trace="setup") as gen:
        stream = make_stream(sizes["vertices"], sizes["edges_per_batch"])
    batches = stream_batches(stream, ctx.seed, sizes["windows"],
                             sizes["edges_per_batch"])
    out: dict[str, float] = {"datagen.stream_gen_s": gen.duration}
    apply_s = edges_applied = sim_seconds = 0.0
    supersteps = frontier = 0
    wall = 0.0
    ints: dict[str, list[int]] = {}
    with tracer.span("workload", "benchmark", trace=NAME) as root:
        for algorithm in STREAM_ALGORITHMS:
            session = StreamingSession(sizes["vertices"], algorithm)
            twin = DeltaCSR(num_vertices=sizes["vertices"])
            host = []
            for number, batch in enumerate(batches):
                window = f"{algorithm}/{number}"
                with tracer.span("process_window", layer, trace=window) as span:
                    done = session.process_window(batch)
                # Replayed outside the window's span: its duration is
                # what the overlay cost inside it.
                with tracer.span("delta.apply+rebase", "core",
                                 trace=window) as delta:
                    twin.apply_batch(batch.src, batch.dst)
                    twin.rebase()
                ints[window] = [getattr(done, k) for k in WINDOW_INTS]
                host.append(span.duration)
                wall += span.duration
                apply_s += delta.duration
                edges_applied += done.new_edges
                supersteps += done.supersteps
                frontier += done.frontier_size
                sim_seconds += done.priced.seconds
            out[f"stream.{algorithm}.peval_s"] = host[0]
            out[f"stream.{algorithm}.window_p50_ms"] = (
                statistics.median(host[1:]) * 1e3
            )
    out["core.delta.apply_s"] = apply_s
    out["core.delta.edges_applied"] = edges_applied
    out["stream.supersteps_total"] = supersteps
    out["stream.frontier_vertices_total"] = frontier
    out["cluster.sim_seconds_total"] = sim_seconds
    out["cluster.sim_supersteps_total"] = supersteps
    out["platforms.vertex_centric.run_s"] = max(0.0, wall - apply_s)
    out["platforms.vertex_centric.cases"] = len(STREAM_ALGORITHMS)
    # Drift: a window whose metered integers differ from the untraced pass.
    expected = _window_ints(untraced.detail)
    out["cluster.sim_drift_rows"] = sum(
        1 for window, got in ints.items() if expected.get(window) != got
    )
    return Traced(out, wall, tracer.accounted_share(root))

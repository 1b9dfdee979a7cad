"""Fresh-process bodies of the ``s9-pooled`` and ``stream-windows``
passes.  ``run.py`` starts this file once per pass (``stream-windows``:
once per session of a pass), so every pass begins
with cold module state, cold dataset caches and an empty store; "cold"
is by construction, not by cache-clearing calls.

Each body times its region with ``time.perf_counter``, snapshots
``getrusage`` right after it, and only then validates outputs, so
checking never lands in a reported time or in the peak RSS.  The last
line of stdout is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time

from common import add_src_to_path

add_src_to_path()

import numpy as np  # noqa: E402

#: algorithm -> platforms, heaviest algorithm first; every case here has
#: a bulk (numpy) kernel, so the bulk engines own this workload.  19
#: cases, all ``ok``.
S9_MATRIX = {
    "lpa": ("GraphX", "PowerGraph", "Grape"),
    "pr": ("GraphX", "PowerGraph", "Flash", "Grape", "Pregel+", "Ligra"),
    "wcc": ("GraphX", "PowerGraph", "Grape", "Ligra"),
    "sssp": ("GraphX", "PowerGraph", "Flash", "Grape", "Pregel+", "Ligra"),
}
S9_DATASET = "S9-Std"
STREAM_ALGORITHMS = ("pr", "sssp", "wcc", "lpa")
#: The graph is the same for every ``--seed`` (this is the catalog's own
#: stream seed); the seed draws which edges arrive in which window.  With
#: the graph itself seeded, supersteps ranged 824-1461 and wall time
#: +-9 % across seeds: other inputs, not noise.
STREAM_GRAPH_SEED = 3


def _usage() -> tuple[float, float]:
    """(CPU seconds, peak RSS MiB) of this process and reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def trace_totals(trace) -> dict[str, int]:
    """The integer totals of a WorkTrace that golden files pin."""
    return {
        "supersteps": trace.supersteps,
        "ops": int(trace.total_ops),
        "messages": int(trace.total_messages),
        "message_bytes": int(trace.total_message_bytes),
    }


def _sha(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def s9_cases(seed: int) -> list[tuple[str, str]]:
    """(platform, algorithm) in submission order: algorithms heaviest
    first, platforms within an algorithm shuffled by the seed.

    The pool hands cases to its two workers first come, first served, and
    the slower worker sets ``wall_s``.  Three LPA cases are 70 % of the
    work; in a fully shuffled order the seed decides whether the longest
    of them starts last and runs alone, and wall time then measures that
    draw (11-15 s for the same work), not the system.
    """
    rng = random.Random(seed)
    cases = []
    for algorithm, platforms in S9_MATRIX.items():
        shuffled = list(platforms)
        rng.shuffle(shuffled)
        cases += [(platform, algorithm) for platform in shuffled]
    return cases


def s9_pooled(args) -> dict:
    from repro import api
    from repro.bench.store import ArtifactStore, set_artifact_store
    from repro.service import SubmitRequest

    order = s9_cases(args.seed)
    request = SubmitRequest(
        tenant="e2e",
        cases=tuple(
            api.case(platform, algorithm, S9_DATASET,
                     scale_divisor=args.divisor)
            for platform, algorithm in order
        ),
    )
    set_artifact_store(ArtifactStore(args.store))
    cpu_before, _ = _usage()
    started = time.perf_counter()
    result = api.run_sync(request, jobs=args.jobs)
    wall = time.perf_counter() - started
    cpu_after, peak = _usage()
    set_artifact_store(None)

    from repro.algorithms.reference import (
        dijkstra, label_propagation, pagerank, wcc,
    )
    from repro.datagen import build_dataset

    graph = build_dataset(S9_DATASET, scale_divisor=args.divisor).graph
    reference = {"pr": pagerank(graph), "sssp": dijkstra(graph, 0),
                 "wcc": wcc(graph)}
    if args.full_reference:
        reference["lpa"] = label_propagation(graph)
    cases = []
    for (platform, algorithm), outcome in zip(order, result.outcomes):
        row = {"key": f"{platform}/{algorithm}", "status": outcome.status}
        if outcome.result is not None:
            values = np.asarray(outcome.result.values)
            row.update(
                trace_totals(outcome.result.trace),
                sim_seconds=outcome.seconds,
                values_sha256=_sha(values),
            )
            expected = reference.get(algorithm)
            if expected is not None:
                # Graphalytics' rule: exact for labels, epsilon for reals.
                row["values_ok"] = bool(
                    np.array_equal(values, expected)
                    if algorithm in ("wcc", "lpa")
                    else np.allclose(values, expected, equal_nan=True)
                )
        cases.append(row)
    return {
        "wall_s": wall,
        "cpu_s": cpu_after - cpu_before,
        "peak_rss_mib": peak,
        "edges_per_case": graph.num_edges,
        "cases": cases,
    }


def make_stream(vertices: int, edges_per_batch: int):
    """The product's bulk-loaded FFT-DG stream (90 % of edges in window 0)."""
    from repro.datagen import generate_stream

    return generate_stream(
        vertices, edges_per_batch=edges_per_batch, bulk_load=0.9,
        seed=STREAM_GRAPH_SEED,
    )


def stream_batches(stream, seed: int, windows: int, edges_per_batch: int):
    """Window 0 as generated, then ``windows`` batches of the remaining
    edges in the arrival order the seed draws."""
    from repro.datagen import EdgeBatch

    src = np.concatenate([b.src for b in stream.batches[1:]])
    dst = np.concatenate([b.dst for b in stream.batches[1:]])
    order = np.random.default_rng(seed).permutation(src.size)
    order = order[: windows * edges_per_batch]
    cuts = range(0, order.size, edges_per_batch)
    return [stream.batches[0]] + [
        EdgeBatch(time=t + 1, src=src[order[c: c + edges_per_batch]],
                  dst=dst[order[c: c + edges_per_batch]])
        for t, c in enumerate(cuts)
    ]


def stream_session(args) -> dict:
    """One algorithm's session over the stream: PEval, then the IncEval
    windows.  One process per session: a session's update log keeps a CSR
    per window, and with four sessions in one process the peak RSS was
    194 or 237 MiB depending on whether the allocator reused the previous
    session's freed memory, which the seed decided."""
    from repro.algorithms.reference import dijkstra, wcc
    from repro.core import Graph
    from repro.platforms.vertex_centric.streaming import StreamingSession

    # The stream is the input; generating it is set-up.
    started = time.perf_counter()
    stream = make_stream(args.vertices, args.edges_per_batch)
    setup = time.perf_counter() - started
    batches = stream_batches(stream, args.seed, args.windows,
                             args.edges_per_batch)

    cpu_before, _ = _usage()
    session = StreamingSession(args.vertices, args.algorithm)
    windows = []
    for batch in batches:
        started = time.perf_counter()
        done = session.process_window(batch)
        elapsed = time.perf_counter() - started
        windows.append({
            "algorithm": args.algorithm,
            "window": done.window,
            "mode": done.mode,
            "host_s": elapsed,
            "new_edges": done.new_edges,
            "frontier_size": done.frontier_size,
            "supersteps": done.supersteps,
            "sim_seconds": done.priced.seconds,
        })
    cpu_after, peak = _usage()

    values = session.values()
    body = {
        "setup_s": setup,
        "cpu_s": cpu_after - cpu_before,
        "peak_rss_mib": peak,
        "windows": windows,
        "values_sha256": _sha(values),
    }
    reference = {"wcc": wcc, "sssp": lambda g: dijkstra(g, 0)}.get(
        args.algorithm
    )
    if reference is not None:
        # The graph after the last window, built independently of the
        # overlay the session used, for the exact rule.
        final = Graph.from_edges(
            np.concatenate([b.src for b in batches]),
            np.concatenate([b.dst for b in batches]),
            num_vertices=args.vertices,
        )
        body["values_ok"] = bool(np.array_equal(values, reference(final)))
    return body


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="body", required=True)
    s9 = sub.add_parser("s9-pooled")
    s9.add_argument("--seed", type=int, required=True)
    s9.add_argument("--divisor", type=int, required=True)
    s9.add_argument("--jobs", type=int, required=True)
    s9.add_argument("--store", required=True)
    s9.add_argument("--full-reference", action="store_true")
    st = sub.add_parser("stream-session")
    st.add_argument("--algorithm", choices=STREAM_ALGORITHMS, required=True)
    st.add_argument("--seed", type=int, required=True)
    st.add_argument("--vertices", type=int, required=True)
    st.add_argument("--edges-per-batch", type=int, required=True)
    st.add_argument("--windows", type=int, required=True)
    sub.add_parser("imports")
    args = parser.parse_args()
    if args.body == "imports":
        # What both bodies import before their first useful statement.
        import repro.algorithms.reference  # noqa: F401
        import repro.api  # noqa: F401
        import repro.bench.store  # noqa: F401
        import repro.platforms.vertex_centric.streaming  # noqa: F401
        return 0
    body = s9_pooled if args.body == "s9-pooled" else stream_session
    print(json.dumps(body(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

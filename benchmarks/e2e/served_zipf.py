"""Workload ``served-zipf``: Zipfian multi-tenant load over TCP.

``repro-bench serve --port 0 --jobs 2 --cache-dir TMP`` runs as a child
process.  The load generator is a **closed loop of 2 TCP clients**
(submit -> result -> next) in this process: 8 tenants, Zipf(s=1.2) over
a 32-case grid ({Flash, Grape, Pregel+, PowerGraph} x 8 algorithms on
S8-Std).  Generation A hits an empty store; then the server is shut
down and restarted on the same cache dir for generation B, where every
case is a store read.  After the first touch the engines do almost
nothing: protocol, schema encoding and per-result fingerprints, the
weighted-round-robin queue, the three dedupe layers and store reads
dominate.  ``--seed`` drives the Zipf draws and the tenant and priority
of every submission.
"""

from __future__ import annotations

import json
import os
import random
import re
import socket
import statistics
import threading
import time
from pathlib import Path

from common import (
    CHILD_TIMEOUT_S, JOBS, Checked, Child, Context, Pass, Traced, cli_argv,
    dataset_edges, golden_for, load_golden, percentile,
)

NAME = "served-zipf"
OP = "submissions"
TAIL_Q = 99

PLATFORMS = ("Flash", "Grape", "Pregel+", "PowerGraph")
ALGORITHMS = ("pr", "wcc", "lpa", "sssp", "bc", "cd", "tc", "kc")
DATASET = "S8-Std"
TENANTS = 8
ZIPF_S = 1.2
CLIENTS = JOBS

#: divisor, cold (generation A) and warm (generation B) submissions.  B is
#: long enough that its 32 store reads are 0.5 % of the samples, so the
#: p99 is a steady-state tail and not the slowest first touches; one pass
#: takes about 7 s here, so three fit in the time box.
SIZES = {
    False: {"divisor": 4000, "cold": 256, "warm": 6144},
    True: {"divisor": 20000, "cold": 32, "warm": 64},
}
SETUP_REPEATS = 3
LISTENING = re.compile(r"listening on ([\d.]+):(\d+)")


def cpu_split() -> tuple[set[int] | None, set[int] | None]:
    """(server cores, generator cores): the generator gets the last core
    it may run on and the server every other one, so the generator never
    takes time from the system it measures.

    On the 2-core box this also keeps the thread-mode server on one core.
    Its executor threads and event loop share the interpreter lock; spread
    over two cores they hand it back and forth across caches, and where
    the kernel happens to place them decided whether a cold generation
    took 3.2 s or 4.5 s of the same work.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None, None
    return set(allowed[:-1]), {allowed[-1]}


def grid(divisor: int) -> list[dict]:
    """The 32 wire-form cases, hottest first for the Zipf draw."""
    return [
        {"platform": platform, "algorithm": algorithm, "dataset": DATASET,
         "scale_divisor": divisor}
        for algorithm in ALGORITHMS
        for platform in PLATFORMS
    ]


def case_name(case: dict) -> str:
    return f"{case['platform']}/{case['algorithm']}"


def submissions(seed: int, count: int, divisor: int) -> list[dict]:
    """``count`` single-case submit requests in wire form.

    The grid's cases are first requested in popularity order at evenly
    spaced positions, as the head of a long Zipf stream would introduce
    them; every other position is a Zipf draw over the cases introduced
    so far.  The engine and store work of a generation is then the same
    for every seed and arrives at a steady pace; the seed draws the
    repeats, tenants and priorities.  (With plain draws the seed decides
    whether a slow tail case is requested at all, and whether its one
    execution starts early or as the last submission: cold wall time then
    ranged 2.0-3.0 s for the same 32 executions.)
    """
    rng = random.Random(seed)
    cases = grid(divisor)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(cases))]
    stride = count // len(cases)
    drawn = []
    for position in range(count):
        introduced, offset = divmod(position, stride)
        if offset == 0 and introduced < len(cases):
            drawn.append(cases[introduced])
        else:
            known = min(introduced + 1, len(cases))
            drawn.append(
                rng.choices(cases[:known], weights=weights[:known], k=1)[0]
            )
    priority = {f"tenant-{t}": rng.randint(1, 4) for t in range(TENANTS)}
    out = []
    for case in drawn:
        tenant = f"tenant-{rng.randrange(TENANTS)}"
        out.append({
            "api_version": "1.0",
            "tenant": tenant,
            "priority": priority[tenant],
            "cases": [case],
        })
    return out


class Connection:
    """One NDJSON/TCP client connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rwb")

    def call(self, payload: dict) -> tuple[dict, int]:
        """Send one request line; return the reply and its size in bytes."""
        self.file.write(json.dumps(payload).encode() + b"\n")
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line), len(line)

    def close(self) -> None:
        self.file.close()
        self.sock.close()


class Server:
    """A ``repro-bench serve`` child, from spawn to reaped exit."""

    def __init__(self, ctx: Context, cache_dir: Path) -> None:
        self.child = Child(
            cli_argv("serve", "--port", "0", "--jobs", str(JOBS),
                     "--cache-dir", str(cache_dir)),
            ctx.tmp, cpus=cpu_split()[0],
        )
        try:
            self.port = self._wait_for_port()
            self.control = Connection(self.port)
            reply, _ = self.control.call({"op": "ping"})
            if not reply.get("ok"):
                raise RuntimeError(f"ping failed: {reply}")
        except BaseException:
            self.child.kill()
            raise
        self.startup_s = time.perf_counter() - self.child.started

    def _wait_for_port(self) -> int:
        deadline = time.perf_counter() + 30.0
        while time.perf_counter() < deadline:
            match = LISTENING.search(self.child.stderr_so_far())
            if match:
                return int(match.group(2))
            if self.child.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(
            "server did not start:\n" + self.child.stderr_so_far()[-2000:]
        )

    def metrics(self) -> dict:
        reply, _ = self.control.call({"op": "metrics"})
        return reply["metrics"]

    def stop(self):
        """``shutdown`` op, then wait for the process to end."""
        try:
            self.control.call({"op": "shutdown"})
            self.control.close()
            return self.child.reap(CHILD_TIMEOUT_S)
        except BaseException:
            self.child.kill()
            raise


def _client(port: int, work: list[dict], samples: list[dict],
            errors: list[str]) -> None:
    """Closed loop: the next submit goes out when this result is in."""
    try:
        conn = Connection(port)
    except OSError as exc:
        errors.append(f"connect: {exc}")
        return
    try:
        for request in work:
            t0 = time.perf_counter()
            sample = {"case": case_name(request["cases"][0]), "t0": t0}
            try:
                reply, _ = conn.call({"op": "submit", "request": request})
                t1 = time.perf_counter()
                if not reply.get("ok"):
                    raise RuntimeError(reply.get("error", "submit refused"))
                reply, size = conn.call(
                    {"op": "result", "job_id": reply["job_id"]}
                )
                t2 = time.perf_counter()
                if not reply.get("ok"):
                    raise RuntimeError(reply.get("error", "result refused"))
                outcome = reply["result"]["outcomes"][0]
                sample.update(
                    t1=t1, t2=t2, bytes=size, status=outcome["status"],
                    seconds=outcome["seconds"],
                    fingerprint=outcome["fingerprint"],
                )
            except (OSError, RuntimeError, KeyError, ValueError) as exc:
                sample.update(t2=time.perf_counter(), error=str(exc))
            samples.append(sample)
    finally:
        conn.close()


def generation(port: int, work: list[dict]) -> dict:
    """Drive ``work`` through ``CLIENTS`` closed-loop connections."""
    per_client: list[list[dict]] = [[] for _ in range(CLIENTS)]
    errors: list[str] = []
    threads = [
        threading.Thread(
            target=_client,
            args=(port, work[i::CLIENTS], per_client[i], errors),
        )
        for i in range(CLIENTS)
    ]
    before = os.sched_getaffinity(0)
    mine = cpu_split()[1]
    if mine:
        os.sched_setaffinity(0, mine)  # the client threads inherit it
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        os.sched_setaffinity(0, before)
    for client, chunk in enumerate(per_client):
        for sample in chunk:
            sample["client"] = client
    samples = [s for chunk in per_client for s in chunk]
    if errors or not samples:
        raise RuntimeError(f"load generator could not run: {errors}")
    return {
        "wall_s": max(s["t2"] for s in samples) - min(s["t0"] for s in samples),
        "samples": samples,
    }


def setup_samples(ctx: Context) -> list[float]:
    """Server start to first ``ping`` reply, on an empty cache dir."""
    out = []
    for n in range(SETUP_REPEATS):
        server = Server(ctx, ctx.tmp / f"served-setup-{n}")
        server.stop()
        out.append(server.startup_s)
    return out


def run_pass(ctx: Context) -> Pass:
    sizes = SIZES[ctx.smoke]
    cache = ctx.tmp / f"served-cache-{time.monotonic_ns()}"
    cold_work = submissions(ctx.seed, sizes["cold"], sizes["divisor"])
    warm_work = submissions(ctx.seed + 1, sizes["warm"], sizes["divisor"])

    server = Server(ctx, cache)
    try:
        cold = generation(server.port, cold_work)
        cold_metrics = server.metrics()
    finally:
        cold_usage = server.stop()
    startups = [server.startup_s]

    server = Server(ctx, cache)
    try:
        warm = generation(server.port, warm_work)
        warm_metrics = server.metrics()
    finally:
        warm_usage = server.stop()
    startups.append(server.startup_s)

    edges = dataset_edges(DATASET, sizes["divisor"])
    served_ok = sum(1 for s in cold["samples"] if s.get("status") == "ok")
    return Pass(
        wall_s=cold["wall_s"],
        cpu_s=cold_usage.cpu_s,
        peak_rss_mib=max(cold_usage.peak_rss_mib, warm_usage.peak_rss_mib),
        ops=len(warm["samples"]),
        ops_s=warm["wall_s"],
        edges=served_ok * edges,
        latencies_ms=[
            (s["t2"] - s["t0"]) * 1e3 for s in warm["samples"]
        ],
        detail={
            "cold": cold, "warm": warm, "cold_metrics": cold_metrics,
            "warm_metrics": warm_metrics, "cache_dir": str(cache),
            "exit_codes": [cold_usage.returncode, warm_usage.returncode],
        },
        setup_s=startups,
    )


def _first_seen(passes: list[Pass]) -> dict[str, dict]:
    """Case -> the first answer any client got for it, in pass order."""
    seen: dict[str, dict] = {}
    for one in passes:
        for leg in ("cold", "warm"):
            for s in sorted(one.detail[leg]["samples"], key=lambda s: s["t0"]):
                if "error" not in s:
                    seen.setdefault(s["case"], s)
    return seen


def golden_payload(ctx: Context, passes: list[Pass]) -> dict:
    golden = load_golden(NAME)
    golden[str(SIZES[ctx.smoke]["divisor"])] = {
        case: {"status": s["status"], "seconds": s["seconds"]}
        for case, s in sorted(_first_seen(passes).items())
    }
    return golden


def check(ctx: Context, passes: list[Pass]) -> Checked:
    """A submission fails when its RPC errors, when status or simulated
    seconds differ from the expected-status table, or when its
    fingerprint differs from the first one seen for that case in the run
    (across clients and across generations A and B)."""
    golden = golden_for(ctx, NAME, SIZES[ctx.smoke]["divisor"])
    first = _first_seen(passes)
    problems: list[str] = []
    attempted = failed = 0
    for number, one in enumerate(passes):
        for code in one.detail["exit_codes"]:
            if code != 0:
                failed += 1
                problems.append(f"pass {number}: server exited with {code}")
        for leg in ("cold", "warm"):
            for s in one.detail[leg]["samples"]:
                attempted += 1
                why = None
                if "error" in s:
                    why = s["error"]
                elif s["fingerprint"] != first[s["case"]]["fingerprint"]:
                    why = "fingerprint differs from the first one seen"
                elif golden is not None:
                    want = golden.get(s["case"])
                    if want is None or (s["status"], s["seconds"]) != (
                        want["status"], want["seconds"]
                    ):
                        why = (f"({s['status']}, {s['seconds']}) differs "
                               f"from expected {want}")
                if why:
                    failed += 1
                    problems.append(f"pass {number} {leg}: {s['case']}: {why}")
    return Checked(attempted, failed, problems[:20])


def traced(ctx: Context, tracer, untraced: Pass, setup_s: float) -> Traced:
    """The client's two RPCs of every submission as spans, then the
    schema and store calls made directly on the served outcomes.

    The clients take the same three timestamps per submission in every
    pass, so the spans are built from the untraced pass itself and the
    tracing overhead on this workload is 0 by construction.
    """
    from repro import api
    from repro.bench.store import ArtifactStore, set_artifact_store
    from repro.service import JobResult, SubmitRequest, outcome_fingerprint
    from repro.service.schema import canonical_json

    detail = untraced.detail
    cold, warm = detail["cold"], detail["warm"]
    # Each client's loop becomes one span per generation with its
    # submit/result calls below it; the two clients overlap in time, so
    # they are two trees, and the accounted share is taken over the
    # clients' own time.
    loops = rpcs = 0.0
    for leg, gen in (("generation-A", cold), ("generation-B", warm)):
        for client in range(CLIENTS):
            mine = [s for s in gen["samples"]
                    if s["client"] == client and "error" not in s]
            if not mine:
                continue
            loop = tracer.record(
                f"{leg}/client-{client}", "benchmark",
                mine[0]["t0"], mine[-1]["t2"], trace=leg,
            )
            loops += loop.duration
            for number, s in enumerate(mine):
                job = f"{leg}/client-{client}/{number}"
                tracer.record("submit", "service", s["t0"], s["t1"],
                              trace=job, parent=loop)
                tracer.record("result", "service", s["t1"], s["t2"],
                              trace=job, parent=loop)
                rpcs += s["t2"] - s["t0"]

    def rtts(gen, a, b):
        return [(s[b] - s[a]) * 1e6 for s in gen["samples"] if "error" not in s]

    out: dict[str, float] = {
        "service.startup_s": setup_s,
        "service.submit_rtt_us": statistics.median(rtts(warm, "t0", "t1")),
        "service.result_rtt_us": statistics.median(rtts(warm, "t1", "t2")),
        "service.result_bytes_p50": statistics.median(
            s["bytes"] for s in warm["samples"] if "error" not in s
        ),
        "service.cold_submit_p95_ms": percentile(
            [(s["t2"] - s["t0"]) * 1e3 for s in cold["samples"]], 95
        ),
    }
    cases_a = detail["cold_metrics"]["cases"]
    cases_b = detail["warm_metrics"]["cases"]
    out["service.executions"] = cases_a["executions"] + cases_b["executions"]
    out["service.dedup_hits"] = cases_a["dedup_hits"] + cases_b["dedup_hits"]
    out["service.admission_rejected"] = (
        cases_a["admission_rejected"] + cases_b["admission_rejected"]
    )
    store_b = detail["warm_metrics"]["store"] or {}
    reads = store_b.get("hits", 0) + store_b.get("misses", 0)
    out["bench.store.hit_ratio"] = store_b.get("hits", 0) / reads if reads else 0.0
    out["cluster.sim_seconds_total"] = sum(
        s["seconds"] or 0.0 for s in _first_seen([untraced]).values()
    )

    # Direct calls on the served outcomes: read all 32 back from the
    # server's store through the API (no engine runs), then time the wire
    # encoding and the fingerprint the server computes per result served.
    sizes = SIZES[ctx.smoke]
    request = SubmitRequest(
        tenant="e2e",
        cases=tuple(
            api.case(c["platform"], c["algorithm"], c["dataset"],
                     scale_divisor=c["scale_divisor"])
            for c in grid(sizes["divisor"])
        ),
    )
    with tracer.span("probes", "benchmark", trace="probes"):
        previous = set_artifact_store(ArtifactStore(detail["cache_dir"]))
        try:
            with tracer.span("store.get", "bench.store") as span:
                result = api.run_sync(request, jobs=1)
        finally:
            set_artifact_store(previous)
        out["bench.store.get_s"] = span.duration
        out["bench.store.bytes"] = sum(
            f.stat().st_size
            for f in Path(detail["cache_dir"]).rglob("*.pkl")
        )
        encode, fingerprint = [], []
        ok = [o for o in result.outcomes if o.result is not None]
        for outcome in result.outcomes:
            wire = JobResult(job_id="probe", tenant="e2e", outcomes=(outcome,))
            with tracer.span("schema.encode", "service") as span:
                canonical_json(wire.to_wire())
            encode.append(span.duration)
            with tracer.span("schema.fingerprint", "service") as span:
                outcome_fingerprint(outcome)
            fingerprint.append(span.duration)
        out["service.schema.encode_us"] = statistics.median(encode) * 1e6
        out["service.schema.fingerprint_us"] = (
            statistics.median(fingerprint) * 1e6
        )
        out["cluster.sim_supersteps_total"] = sum(
            o.result.trace.supersteps for o in ok
        )
        out["cluster.sim_messages_total"] = sum(
            o.result.trace.total_messages for o in ok
        )
        out["cluster.sim_ops_total"] = sum(
            o.result.trace.total_ops for o in ok
        )
    return Traced(out, cold["wall_s"], rpcs / loops if loops else 0.0)

"""Shared plumbing for the end-to-end benchmark: paths, the scrubbed
child environment, child processes with per-child ``rusage``, and the
few statistics the driver reports.

Nothing here imports :mod:`repro`; modules that do call
:func:`add_src_to_path` first.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden"

DEFAULT_SEED = 0

#: Pool width, server executor width and client count.  The box this was
#: sized on has 2 cores, and all load comes from <= nproc connections.
JOBS = 2

#: No child may outlive this; the driver allows a run 180 s in total.
CHILD_TIMEOUT_S = 150.0


def add_src_to_path() -> None:
    """Make ``import repro`` work from a bare checkout (not installed)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def dataset_edges(name: str, scale_divisor: int) -> int:
    """|E| of a catalog dataset, for edges-per-second figures.  Builds
    the dataset in this process (cached by the catalog), never inside a
    timed region."""
    add_src_to_path()
    from repro.datagen import build_dataset

    return build_dataset(name, scale_divisor=scale_divisor).graph.num_edges


def child_env(tmp: Path) -> dict[str, str]:
    """The environment every measured child runs in.

    Every ``REPRO_*`` knob is scrubbed (the product's defaults are what
    is measured), ``REPRO_BENCH_OUT`` and ``TMPDIR`` point into the
    run's temp dir so nothing lands in ``benchmarks/out/`` or ``/tmp``,
    and the hash seed is pinned so set/dict iteration order is not a
    source of run-to-run noise.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_BENCH_OUT"] = str(tmp / "bench-out")
    env["TMPDIR"] = str(tmp)
    return env


@dataclass
class ChildUsage:
    """What one finished child cost.  The numbers come from ``wait4``,
    so they are this child's own usage plus the descendants it reaped
    (pool workers), and nobody else's."""

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    stdout: str
    stderr: str


class Child:
    """A process started now and reaped with ``os.wait4``.

    stdout/stderr go to files in ``tmp`` rather than pipes, so a chatty
    child can never block on a full pipe and no reader threads run
    beside the measurement.
    """

    _seq = 0

    def __init__(self, argv: list[str], tmp: Path,
                 cpus: set[int] | None = None) -> None:
        Child._seq += 1
        self._out = tmp / f"child-{Child._seq}.out"
        self._err = tmp / f"child-{Child._seq}.err"
        self.started = time.perf_counter()
        with self._out.open("w") as out, self._err.open("w") as err:
            self.proc = subprocess.Popen(
                argv, env=child_env(tmp), cwd=REPO,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                # Runs in the forked child before exec; this process has
                # no other thread alive when it starts children.
                preexec_fn=(lambda: os.sched_setaffinity(0, cpus))
                if cpus else None,
            )

    def stderr_so_far(self) -> str:
        return self._err.read_text(errors="replace")

    def reap(self, timeout: float = CHILD_TIMEOUT_S) -> ChildUsage:
        """Block until the child exits (killing it after ``timeout``)."""
        killer = threading.Timer(timeout, self.proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - self.started
        # Popen must not try to reap the pid a second time.
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return ChildUsage(
            returncode=self.proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mib=usage.ru_maxrss / 1024.0,
            stdout=self._out.read_text(errors="replace"),
            stderr=self.stderr_so_far(),
        )

    def kill(self) -> None:
        """Stop a child that is still running and wait for it."""
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()


def run_child(argv: list[str], tmp: Path, what: str) -> ChildUsage:
    """Run one child to completion; a non-zero exit is a benchmark error."""
    child = Child(argv, tmp)
    try:
        usage = child.reap()
    except BaseException:
        child.kill()
        raise
    if usage.returncode != 0:
        raise RuntimeError(
            f"{what} exited with {usage.returncode}:\n{usage.stderr[-2000:]}"
        )
    return usage


def python_argv(*args: str) -> list[str]:
    return [sys.executable, *args]


def cli_argv(*args: str) -> list[str]:
    """``repro-bench ARGS`` without needing the package installed."""
    return python_argv("-m", "repro.bench.cli", *args)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def load_golden(name: str) -> dict:
    """The whole golden file of a workload: size key -> recorded outputs."""
    path = GOLDEN / f"{name}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def golden_for(ctx: "Context", name: str, size_key: object):
    """What was recorded for this workload at this size, or ``None`` when
    nothing was, or when this run is the one recording it."""
    if ctx.record_golden:
        return None
    return load_golden(name).get(str(size_key))


def save_golden(name: str, payload: dict) -> None:
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / f"{name}.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n"
    )


@dataclass
class Context:
    """One benchmark invocation: its seed, temp dir and size class."""

    seed: int
    tmp: Path
    smoke: bool = False
    #: golden files are being rewritten, so they are not compared with and
    #: every reference kernel runs, however slow
    record_golden: bool = False


@dataclass
class Pass:
    """One timed pass over a workload (one fresh subprocess).

    ``ops`` over ``ops_s`` is the workload's steady throughput (rows,
    cases, warm submissions, IncEval windows); ``edges`` over ``wall_s``
    is its edges per second.  ``latencies_ms`` holds one sample per
    operation whose completion the client can see on its own.
    ``detail`` is whatever the workload's check needs to see again.
    """

    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    ops: int
    ops_s: float
    edges: int
    latencies_ms: list[float]
    detail: dict
    #: set-up samples taken inside the pass (server start-ups, stream
    #: generation), added to the workload's ``setup_samples``
    setup_s: list[float] = field(default_factory=list)


@dataclass
class Checked:
    """Outcome of validating every pass: operations attempted, failed,
    and one line per failure for the operator."""

    attempted: int
    failed: int
    problems: list[str]


@dataclass
class Traced:
    """What a workload's traced re-drive hands back: its per-layer
    metrics, the traced counterpart of the untraced ``wall_s``, and the
    share of that time the layers' own spans account for."""

    metrics: dict[str, float]
    wall_s: float
    accounted_share: float

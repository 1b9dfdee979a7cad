"""The asyncio multi-tenant benchmark service and its TCP endpoint.

:class:`BenchmarkService` turns the one-shot bench harness into a
long-running server: many tenants submit
:class:`~repro.service.schema.SubmitRequest`\\ s concurrently, and the
service schedules, dedupes, and executes their cases while preserving
the harness's core contract — **a served outcome is bit-identical to a
direct** :func:`~repro.bench.runner.run_case` **execution**.

Layering (all existing substrates, composed):

* **Dedup** — identical in-flight cases share one execution (waiters
  attach to the executing case's future); completed cases are served by
  ``run_case``'s own memo → store → execute lookup order, so repeats
  across requests hit the session memo and repeats across service
  restarts hit the persistent :class:`~repro.bench.store.ArtifactStore`.
* **Fairness** — a :class:`~repro.service.scheduler.WeightedRoundRobin`
  over per-tenant queues; a tenant's submission ``priority`` is its
  round-robin weight.
* **Admission** — :func:`~repro.service.scheduler.preflight_case`
  charges each case's working set through the platform's ``_admit()``
  path before it occupies capacity; rejected cases are tallied and
  ``run_case`` maps them to the same structured failure outcome a
  direct call returns.
* **Execution** — a bounded thread executor runs cases in-process, so
  they share the session memo and ambient store and the memo → store →
  execute lookup order applies with no fold-back bookkeeping.
* **Observability** — queue depths, in-flight peaks, dedup/admission
  tallies, store/dataset/kernel cache stats, and the tracer's counter
  snapshot, all in :meth:`BenchmarkService.metrics` (the live JSON
  metrics endpoint).

:class:`ServiceServer` exposes the service over TCP as
newline-delimited canonical JSON (``repro-bench serve``); see
``docs/service.md`` for the protocol.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.bench.runner import CaseOutcome, CaseSpec
from repro.bench.store import get_artifact_store
from repro.errors import SchemaError, ServiceError
from repro.obs import (
    SERVICE_CASES_DONE,
    SERVICE_DEDUP_HITS,
    SERVICE_REJECTED,
    SERVICE_SUBMITS,
    get_tracer,
)
from repro.service.scheduler import WeightedRoundRobin, preflight_case
from repro.service.schema import (
    API_VERSION,
    JobResult,
    JobStatus,
    SubmitRequest,
    canonical_json,
    case_key,
    submit_request_from_wire,
)

__all__ = ["BenchmarkService", "ServiceServer", "run_service"]


@dataclass
class _Job:
    """Parent-side bookkeeping for one submitted job."""

    job_id: str
    tenant: str
    specs: tuple[CaseSpec, ...]
    outcomes: list[CaseOutcome | None]
    pending: int
    dispatched: int = 0
    done: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def state(self) -> str:
        """``queued`` | ``running`` | ``done`` (see :class:`JobStatus`)."""
        if self.pending == 0:
            return "done"
        return "running" if self.dispatched > 0 else "queued"


@dataclass(frozen=True)
class _CaseEntry:
    """One schedulable unit: a job's case at a queue position."""

    job: _Job
    index: int
    spec: CaseSpec
    key: str


class BenchmarkService:
    """Long-running multi-tenant benchmark server.

    Parameters
    ----------
    jobs:
        Executor width — the maximum number of concurrently executing
        cases (the slot budget); they run on in-process worker threads.

    Use as an async context manager, or call :meth:`start` /
    :meth:`close` explicitly.  All public coroutines must run on the
    service's event loop; the executor threads never touch service
    state.
    """

    def __init__(self, *, jobs: int = 1) -> None:
        if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
            raise ServiceError(f"jobs must be an integer >= 1, got {jobs!r}")
        self._jobs = jobs
        self._wrr = WeightedRoundRobin()
        self._jobs_by_id: dict[str, _Job] = {}
        self._inflight: dict[str, asyncio.Future] = {}
        self._tasks: set[asyncio.Task] = set()
        self._executor = None
        self._dispatcher: asyncio.Task | None = None
        self._slots: asyncio.Semaphore | None = None
        self._wake: asyncio.Event | None = None
        self._running = False
        self._seq = 0
        self._started_at = 0.0
        self._inflight_count = 0
        self.stats: dict[str, int | float] = {
            "submitted_requests": 0,
            "submitted_cases": 0,
            "completed_cases": 0,
            "executions": 0,
            "dedup_hits": 0,
            "admission_rejected": 0,
            "jobs_done": 0,
            "peak_inflight": 0,
        }

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> "BenchmarkService":
        """Create the executor and start the dispatcher."""
        if self._running:
            raise ServiceError("service already started")
        self._executor = ThreadPoolExecutor(
            max_workers=self._jobs, thread_name_prefix="repro-service"
        )
        self._slots = asyncio.Semaphore(self._jobs)
        self._wake = asyncio.Event()
        self._running = True
        self._started_at = time.monotonic()
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-service-dispatcher"
        )
        return self

    async def close(self, *, drain: bool = True) -> None:
        """Stop the service.

        ``drain=True`` (default) first waits for every submitted job to
        finish; ``drain=False`` cancels queued and in-flight work.
        Idempotent.
        """
        if not self._running:
            return
        if drain:
            jobs = list(self._jobs_by_id.values())
            if jobs:
                await asyncio.gather(*(j.done.wait() for j in jobs))
        self._running = False
        assert self._wake is not None
        self._wake.set()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        for task in list(self._tasks):
            if not drain:
                task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._executor.shutdown(wait=True, cancel_futures=not drain)

    async def __aenter__(self) -> "BenchmarkService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close(drain=exc_type is None)

    # -- client surface -------------------------------------------------

    async def submit(self, request: SubmitRequest) -> str:
        """Queue one job; returns its job id immediately.

        The request's ``priority`` becomes (or updates) the tenant's
        round-robin weight.  Raises
        :class:`~repro.errors.SchemaError` for non-schema input and
        :class:`~repro.errors.ServiceError` when the service is not
        running.
        """
        if not self._running:
            raise ServiceError("service is not running; call start()")
        if not isinstance(request, SubmitRequest):
            raise SchemaError(
                f"submit() takes a SubmitRequest, got {type(request).__name__}"
            )
        self._seq += 1
        job_id = f"job-{self._seq:06d}"
        specs = tuple(case.to_spec() for case in request.cases)
        job = _Job(
            job_id=job_id,
            tenant=request.tenant,
            specs=specs,
            outcomes=[None] * len(specs),
            pending=len(specs),
        )
        self._jobs_by_id[job_id] = job
        self._wrr.ensure_tenant(request.tenant, request.priority)
        for index, spec in enumerate(specs):
            self._wrr.push(
                request.tenant,
                _CaseEntry(job, index, spec, case_key(spec)),
            )
        self.stats["submitted_requests"] += 1
        self.stats["submitted_cases"] += len(specs)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add(SERVICE_SUBMITS, float(len(specs)))
        self._wake.set()
        return job_id

    def status(self, job_id: str) -> JobStatus:
        """Current :class:`JobStatus` of a submitted job."""
        job = self._job(job_id)
        return JobStatus(
            job_id=job.job_id,
            tenant=job.tenant,
            state=job.state,
            total_cases=len(job.specs),
            completed_cases=len(job.specs) - job.pending,
        )

    async def result(self, job_id: str, *, wait: bool = True) -> JobResult:
        """The finished job's outcomes, in submission order.

        ``wait=True`` blocks until the job completes; ``wait=False``
        raises :class:`~repro.errors.ServiceError` if it has not.
        """
        job = self._job(job_id)
        if wait:
            await job.done.wait()
        elif job.pending:
            raise ServiceError(
                f"job {job_id!r} is {job.state} "
                f"({len(job.specs) - job.pending}/{len(job.specs)} cases)"
            )
        return JobResult(
            job_id=job.job_id,
            tenant=job.tenant,
            outcomes=tuple(job.outcomes),
        )

    def metrics(self) -> dict:
        """Live service metrics as a JSON-encodable dict.

        One stop for everything the obs layer knows: service tallies,
        queue depths, in-flight capacity, persistent-store and
        dataset/kernel cache stats, and the tracer's counter snapshot
        (empty when tracing is off).
        """
        from repro.datagen.catalog import dataset_cache_info
        from repro.platforms.kernels import kernel_cache_stats

        store = get_artifact_store()
        info = dataset_cache_info()
        tracer = get_tracer()
        return {
            "api_version": API_VERSION,
            "uptime_seconds": (
                time.monotonic() - self._started_at if self._running else 0.0
            ),
            "jobs": {
                "submitted": self.stats["submitted_requests"],
                "done": self.stats["jobs_done"],
            },
            "cases": {
                "submitted": self.stats["submitted_cases"],
                "completed": self.stats["completed_cases"],
                "executions": self.stats["executions"],
                "dedup_hits": self.stats["dedup_hits"],
                "admission_rejected": self.stats["admission_rejected"],
            },
            "queues": {
                "depth_total": self._wrr.total_depth(),
                "per_tenant": self._wrr.depths(),
                "weights": self._wrr.weights(),
            },
            "inflight": {
                "current": self._inflight_count,
                "peak": self.stats["peak_inflight"],
                "slots": self._jobs,
            },
            "store": store.stats() if store is not None else None,
            "dataset_cache": {
                "hits": info.hits,
                "misses": info.misses,
                "maxsize": info.maxsize,
                "currsize": info.currsize,
            },
            "kernel_cache": kernel_cache_stats(),
            "counters": (
                tracer.counters.snapshot() if tracer.enabled else {}
            ),
        }

    # -- internals ------------------------------------------------------

    def _job(self, job_id: str) -> _Job:
        try:
            return self._jobs_by_id[job_id]
        except KeyError:
            raise ServiceError(f"unknown job id {job_id!r}") from None

    async def _dispatch_loop(self) -> None:
        """Pull from the WRR scheduler whenever a slot frees up."""
        assert self._slots is not None and self._wake is not None
        while self._running:
            await self._slots.acquire()
            item = self._wrr.pop()
            if item is None:
                self._slots.release()
                self._wake.clear()
                await self._wake.wait()
                continue
            _, entry = item
            entry.job.dispatched += 1
            task = asyncio.create_task(self._case_task(entry))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _case_task(self, entry: _CaseEntry) -> None:
        """Run (or dedupe) one case; owns one dispatcher slot."""
        tracer = get_tracer()
        holder = self._inflight.get(entry.key)
        if holder is not None:
            # Identical case already executing: give the slot back and
            # wait for that execution's outcome.
            self._slots.release()
            self.stats["dedup_hits"] += 1
            if tracer.enabled:
                tracer.add(SERVICE_DEDUP_HITS, 1.0)
            try:
                outcome = await asyncio.shield(holder)
            except Exception as exc:  # pragma: no cover - executor loss
                outcome = self._internal_failure(entry.spec, exc)
            self._finish_case(entry, outcome)
            return
        future = asyncio.get_running_loop().create_future()
        self._inflight[entry.key] = future
        try:
            outcome = await self._run_one(entry.spec)
        except Exception as exc:  # pragma: no cover - executor loss
            outcome = self._internal_failure(entry.spec, exc)
        finally:
            self._slots.release()
        self._inflight.pop(entry.key, None)
        if not future.done():
            future.set_result(outcome)
        self._finish_case(entry, outcome)

    async def _run_one(self, spec: CaseSpec) -> CaseOutcome:
        """Preflight, then execute."""
        loop = asyncio.get_running_loop()
        tracer = get_tracer()
        ticket = await loop.run_in_executor(
            self._executor, preflight_case, spec
        )
        if not ticket.admitted:
            self.stats["admission_rejected"] += 1
            if tracer.enabled:
                tracer.add(SERVICE_REJECTED, 1.0)
        try:
            self._inflight_count += 1
            self.stats["peak_inflight"] = max(
                self.stats["peak_inflight"], self._inflight_count
            )
            self.stats["executions"] += 1
            outcome = await loop.run_in_executor(self._executor, spec.run)
        finally:
            self._inflight_count -= 1
        return outcome

    def _finish_case(self, entry: _CaseEntry, outcome: CaseOutcome) -> None:
        """Record one completed case and close out its job if last."""
        job = entry.job
        job.outcomes[entry.index] = outcome
        job.pending -= 1
        self.stats["completed_cases"] += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add(SERVICE_CASES_DONE, 1.0)
        if job.pending == 0:
            self.stats["jobs_done"] += 1
            job.done.set()

    def _internal_failure(self, spec: CaseSpec, exc: Exception) -> CaseOutcome:
        """Map a service-internal execution failure to a structured
        outcome (never bit-identical territory: the direct run would
        have raised the same exception)."""
        return CaseOutcome(
            platform=spec.platform,
            algorithm=spec.algorithm,
            dataset=spec.dataset,
            status="error",
            result=None,
            detail=f"service execution failed: {type(exc).__name__}: {exc}",
        )


class ServiceServer:
    """Newline-delimited-JSON TCP front end for a running service.

    Each request line is one JSON object with an ``op`` field
    (``submit`` / ``status`` / ``result`` / ``metrics`` / ``ping`` /
    ``shutdown``); each response is one canonical-JSON line carrying
    ``ok``, ``api_version``, and the op's payload.  See
    ``docs/service.md`` for the full protocol table.
    """

    def __init__(
        self,
        service: BenchmarkService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._service = service
        self._host = host
        self._port = port
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()

    async def start(self) -> "ServiceServer":
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port
        )
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (useful with ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise ServiceError("server is not listening")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def wait_closed(self) -> None:
        """Block until a ``shutdown`` op arrives, then stop accepting."""
        await self._shutdown.wait()
        await self.close()

    async def close(self) -> None:
        """Stop accepting connections (idempotent)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._shutdown.set()

    async def _handle(self, reader, writer) -> None:
        """Serve one client connection, line by line."""
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError as exc:
                    # Past the stream-reader limit the line's boundary
                    # is lost and the stream cannot be resynchronised:
                    # answer once, then hang up.
                    await _reply(writer, _error_reply(
                        SchemaError(f"request line too long: {exc}")
                    ))
                    break
                if not line:
                    break
                await _reply(writer, await self._dispatch_op(line))
                if self._shutdown.is_set():
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _dispatch_op(self, line: bytes) -> dict:
        """Decode one request line and run its op."""
        base = {"ok": True, "api_version": API_VERSION}
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise SchemaError("request must be a JSON object")
            op = payload.get("op")
            if op == "submit":
                request = submit_request_from_wire(payload.get("request"))
                job_id = await self._service.submit(request)
                return {**base, "op": op, "job_id": job_id}
            if op == "status":
                status = self._service.status(str(payload.get("job_id")))
                return {**base, "op": op, "status": status.to_wire()}
            if op == "result":
                result = await self._service.result(
                    str(payload.get("job_id")),
                    wait=bool(payload.get("wait", True)),
                )
                return {**base, "op": op, "result": result.to_wire()}
            if op == "metrics":
                return {**base, "op": op, "metrics": self._service.metrics()}
            if op == "ping":
                return {**base, "op": op}
            if op == "shutdown":
                self._shutdown.set()
                return {**base, "op": op}
            raise SchemaError(f"unknown op {op!r}")
        except (
            SchemaError,
            ServiceError,
            json.JSONDecodeError,
            UnicodeDecodeError,
        ) as exc:
            return _error_reply(exc)


async def _reply(writer, response: dict) -> None:
    """Send one canonical-JSON response line."""
    writer.write(canonical_json(response).encode() + b"\n")
    await writer.drain()


def _error_reply(exc: Exception) -> dict:
    """The typed error line a rejected request gets."""
    return {
        "ok": False,
        "api_version": API_VERSION,
        "error": f"{type(exc).__name__}: {exc}",
    }


async def run_service(
    *,
    jobs: int = 1,
    host: str = "127.0.0.1",
    port: int = 8642,
    announce=None,
) -> None:
    """Run a service + TCP server until a ``shutdown`` op arrives.

    The coroutine behind ``repro-bench serve``; ``announce`` (if given)
    is called with the bound ``(host, port)`` once listening.
    """
    async with BenchmarkService(jobs=jobs) as service:
        server = ServiceServer(service, host, port)
        await server.start()
        if announce is not None:
            announce(server.address)
        else:  # pragma: no cover - CLI default
            bound_host, bound_port = server.address
            print(
                f"repro-bench service listening on "
                f"{bound_host}:{bound_port} (api {API_VERSION})",
                file=sys.stderr,
            )
        await server.wait_closed()

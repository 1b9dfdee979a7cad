"""Service tests: concurrent admission, dedupe, fairness, bit-identity.

The async tests drive the real :class:`BenchmarkService` event loop via
``asyncio.run`` inside synchronous test functions (no pytest-asyncio
dependency).  Execution-level assertions instrument
:meth:`repro.platforms.base.Platform.run` — the one chokepoint every
*real* execution passes through and every memo/store/dedup hit skips.
"""

import asyncio
import random
import threading

import pytest

from repro.bench import store as store_mod
from repro.bench.runner import clear_case_cache
from repro.errors import SchemaError, ServiceError
from repro.platforms.base import Platform
from repro.service import (
    BenchmarkService,
    CaseRequest,
    ServiceServer,
    SubmitRequest,
    case_key,
    outcome_fingerprint,
)

# Small, fast, distinct cases (scale_divisor=20000 keeps graphs tiny).
POOL = (
    CaseRequest.make("Flash", "pr", "S8-Std", scale_divisor=20000),
    CaseRequest.make("Grape", "wcc", "S8-Std", scale_divisor=20000),
    CaseRequest.make("Pregel+", "sssp", "S8-Std", scale_divisor=20000),
    CaseRequest.make("PowerGraph", "lpa", "S8-Std", scale_divisor=20000),
)


@pytest.fixture(autouse=True)
def _isolated_session():
    clear_case_cache()
    store_mod.set_artifact_store(None)
    yield
    clear_case_cache()
    store_mod.set_artifact_store(None)


class ExecutionProbe:
    """Counts real platform executions and their concurrency."""

    def __init__(self):
        self.lock = threading.Lock()
        self.counts = {}
        self.current = 0
        self.peak = 0

    def patch(self, monkeypatch):
        probe = self
        original = Platform.run

        def counted(self, algorithm, graph, cluster, **kwargs):
            key = (self.name, algorithm)
            with probe.lock:
                probe.counts[key] = probe.counts.get(key, 0) + 1
                probe.current += 1
                probe.peak = max(probe.peak, probe.current)
            try:
                return original(self, algorithm, graph, cluster, **kwargs)
            finally:
                with probe.lock:
                    probe.current -= 1

        monkeypatch.setattr(Platform, "run", counted)
        return self


def _direct_fingerprints(requests):
    """Sequential cold-session fingerprints, one per case request."""
    clear_case_cache()
    fps = {}
    for req in requests:
        spec = req.to_spec()
        key = case_key(spec)
        if key not in fps:
            fps[key] = outcome_fingerprint(spec.run())
    return fps


class TestConcurrentAdmission:
    """Property-style: random overlapping tenant grids, three seeds."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_slots_dedup_and_bit_identity(self, seed, monkeypatch):
        rng = random.Random(seed)
        jobs = rng.randint(2, 4)
        tenants = [f"tenant-{i}" for i in range(rng.randint(3, 6))]
        requests = [
            SubmitRequest(
                tenant=tenant,
                cases=tuple(
                    rng.choice(POOL) for _ in range(rng.randint(2, 5))
                ),
                priority=rng.randint(1, 4),
            )
            for tenant in tenants
        ]
        direct = _direct_fingerprints(case for r in requests for case in r.cases)

        clear_case_cache()
        probe = ExecutionProbe().patch(monkeypatch)

        async def scenario():
            async with BenchmarkService(jobs=jobs) as service:
                job_ids = [await service.submit(r) for r in requests]
                results = [await service.result(j) for j in job_ids]
                return results, service.metrics()

        results, metrics = asyncio.run(scenario())

        # 1. The slot budget is never exceeded, measured at the real
        #    execution chokepoint (not the service's own accounting).
        assert probe.peak <= jobs
        assert metrics["inflight"]["peak"] <= jobs

        # 2. Identical specs dedupe to ONE real execution each.
        unique_keys = {
            case_key(c.to_spec()) for r in requests for c in r.cases
        }
        assert sum(probe.counts.values()) == len(unique_keys)
        assert all(count == 1 for count in probe.counts.values())

        # 3. Every served outcome is bit-identical to a sequential
        #    cold-session run of the same case.
        for request, result in zip(requests, results):
            assert result.tenant == request.tenant
            for case, outcome in zip(request.cases, result.outcomes):
                assert outcome_fingerprint(outcome) == \
                    direct[case_key(case.to_spec())]

        # 4. Bookkeeping adds up.
        total = sum(len(r.cases) for r in requests)
        assert metrics["cases"]["submitted"] == total
        assert metrics["cases"]["completed"] == total
        assert metrics["queues"]["depth_total"] == 0


class TestByteBudget:
    def test_rejected_case_outcome_identical_to_direct(self):
        # G-thinker/pr fails admission; the service must serve the same
        # structured failure a direct call produces.
        bad = CaseRequest.make("G-thinker", "pr", "S8-Std",
                               scale_divisor=20000)
        direct = _direct_fingerprints([bad])
        clear_case_cache()

        async def scenario():
            async with BenchmarkService(jobs=2) as service:
                job = await service.submit(
                    SubmitRequest(tenant="t", cases=(bad,))
                )
                result = await service.result(job)
                return result, service.metrics()

        result, metrics = asyncio.run(scenario())
        assert result.outcomes[0].status == "unsupported"
        assert outcome_fingerprint(result.outcomes[0]) == \
            direct[case_key(bad.to_spec())]
        assert metrics["cases"]["admission_rejected"] == 1


class TestServiceSurface:
    def test_status_progresses_to_done(self):
        async def scenario():
            async with BenchmarkService(jobs=1) as service:
                job = await service.submit(
                    SubmitRequest(tenant="t", cases=(POOL[0],))
                )
                first = service.status(job)
                await service.result(job)
                last = service.status(job)
                return first, last

        first, last = asyncio.run(scenario())
        assert first.state in ("queued", "running")
        assert (last.state, last.completed_cases) == ("done", 1)

    def test_result_without_wait_raises_while_pending(self):
        async def scenario():
            async with BenchmarkService(jobs=1) as service:
                job = await service.submit(
                    SubmitRequest(tenant="t", cases=(POOL[0],))
                )
                with pytest.raises(ServiceError):
                    await service.result(job, wait=False)
                await service.result(job)

        asyncio.run(scenario())

    def test_unknown_job_and_bad_request_rejected(self):
        async def scenario():
            async with BenchmarkService(jobs=1) as service:
                with pytest.raises(ServiceError):
                    service.status("job-999999")
                with pytest.raises(SchemaError):
                    await service.submit({"not": "a request"})
                # Keep the service busy-free before clean shutdown.
                job = await service.submit(
                    SubmitRequest(tenant="t", cases=(POOL[0],))
                )
                await service.result(job)

        asyncio.run(scenario())

    def test_submit_after_close_rejected(self):
        async def scenario():
            service = BenchmarkService(jobs=1)
            await service.start()
            await service.close()
            with pytest.raises(ServiceError):
                await service.submit(
                    SubmitRequest(tenant="t", cases=(POOL[0],))
                )

        asyncio.run(scenario())

    def test_bad_constructor_args_rejected(self):
        with pytest.raises(ServiceError):
            BenchmarkService(jobs=0)

    def test_store_hits_across_service_restarts(self, tmp_path):
        # Two service generations over the same store: the second must
        # serve from the persistent layer, not re-execute.
        store_mod.set_artifact_store(store_mod.ArtifactStore(tmp_path))
        request = SubmitRequest(tenant="t", cases=POOL[:2])

        async def generation():
            async with BenchmarkService(jobs=2) as service:
                job = await service.submit(request)
                return await service.result(job)

        first = asyncio.run(generation())
        clear_case_cache()  # new session: memo gone, store remains
        store = store_mod.get_artifact_store()
        hits_before = store.stats()["hits"]
        second = asyncio.run(generation())
        assert store.stats()["hits"] > hits_before
        assert first.fingerprints == second.fingerprints


class TestTcpServer:
    def test_protocol_round_trip(self):
        import gc
        import json

        async def scenario():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            async with BenchmarkService(jobs=2) as service:
                server = await ServiceServer(service, port=0).start()
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)

                async def rpc(payload):
                    writer.write(json.dumps(payload).encode() + b"\n")
                    await writer.drain()
                    return json.loads(await reader.readline())

                assert (await rpc({"op": "ping"}))["ok"]
                submit = await rpc({
                    "op": "submit",
                    "request": SubmitRequest(
                        tenant="alice", cases=(POOL[0],)
                    ).to_wire(),
                })
                assert submit["ok"]
                result = await rpc({
                    "op": "result", "job_id": submit["job_id"],
                })
                assert result["result"]["outcomes"][0]["status"] == "ok"
                assert result["result"]["outcomes"][0]["fingerprint"]
                metrics = await rpc({"op": "metrics"})
                assert metrics["metrics"]["cases"]["completed"] == 1
                bad = await rpc({"op": "nope"})
                assert not bad["ok"] and "unknown op" in bad["error"]
                malformed = await rpc({"op": "submit", "request": {}})
                assert not malformed["ok"]
                # A non-UTF-8 line gets a typed error and the connection
                # lives on; a line past the stream-reader limit gets one
                # and is hung up on.  Neither may escape the handler.
                writer.write(b'{"op": "\xff"}\n')
                garbled = json.loads(await reader.readline())
                assert not garbled["ok"]
                assert "UnicodeDecodeError" in garbled["error"]
                assert (await rpc({"op": "ping"}))["ok"]
                writer.write(b"x" * (2 ** 16 + 1) + b"\n")
                oversize = json.loads(await reader.readline())
                assert not oversize["ok"] and "too long" in oversize["error"]
                try:
                    assert await reader.read() == b""
                except ConnectionError:
                    pass
                writer.close()
                reader, writer = await asyncio.open_connection(host, port)
                assert (await rpc({"op": "ping"}))["ok"]
                gc.collect()  # a crashed handler task reports when freed
                assert unhandled == []
                down = await rpc({"op": "shutdown"})
                assert down["ok"]
                writer.close()
                await server.wait_closed()

        asyncio.run(scenario())

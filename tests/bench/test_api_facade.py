"""Tests for the repro.api facade and the pool-fallback warning."""

import warnings

import pytest

import repro.api as api
from repro.bench.runner import clear_case_cache
from repro.errors import SchemaError, ServiceError
from repro.service.schema import SubmitRequest, outcome_fingerprint


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_case_cache()
    yield
    clear_case_cache()


def _request(tenant="t", n=1):
    cases = tuple(
        api.case("Flash", "pr", "S8-Std", scale_divisor=20000)
        for _ in range(n)
    )
    return SubmitRequest(tenant=tenant, cases=cases)


class TestFacade:
    def test_run_sync_matches_direct_execution(self):
        direct = api.case(
            "Flash", "pr", "S8-Std", scale_divisor=20000
        ).to_spec().run()
        clear_case_cache()
        result = api.run_sync(_request())
        assert result.outcomes[0].status == "ok"
        assert outcome_fingerprint(result.outcomes[0]) == \
            outcome_fingerprint(direct)

    def test_submit_gather_preserves_handle_order(self):
        h1 = api.submit(_request("a"))
        h2 = api.submit(SubmitRequest(
            tenant="b",
            cases=(api.case("Grape", "wcc", "S8-Std", scale_divisor=20000),),
        ))
        results = api.gather([h2, h1])
        assert [r.job_id for r in results] == [h2.job_id, h1.job_id]
        assert results[0].tenant == "b"
        assert results[1].tenant == "a"

    def test_gather_none_collects_all_pending(self):
        h1 = api.submit(_request("a"))
        h2 = api.submit(_request("b"))
        results = api.gather()
        assert {r.job_id for r in results} == {h1.job_id, h2.job_id}

    def test_regather_serves_from_result_table(self):
        handle = api.submit(_request())
        first = api.gather([handle])[0]
        second = api.gather([handle])[0]
        assert first is second

    def test_identical_cases_across_jobs_share_execution(self):
        h1 = api.submit(_request("a"))
        h2 = api.submit(_request("b"))
        r1, r2 = api.gather([h1, h2])
        assert r1.fingerprints == r2.fingerprints

    def test_submit_rejects_non_request(self):
        with pytest.raises(SchemaError):
            api.submit({"tenant": "t"})

    def test_gather_unknown_handle_rejected(self):
        ghost = api.JobHandle(job_id="local-999999", request=_request())
        with pytest.raises(ServiceError):
            api.gather([ghost])

    def test_facade_does_not_touch_deprecated_entry_points(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.run_sync(_request())


class TestDeprecationShims:
    def test_submodule_entry_points_do_not_warn(self):
        from repro.bench.pool import run_cases
        from repro.bench.runner import CaseSpec, run_case

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_case("Flash", "pr", "S8-Std", scale_divisor=20000)
            run_cases(
                [CaseSpec.make("Flash", "pr", "S8-Std", scale_divisor=20000)],
                jobs=1,
            )


class TestPoolFallbackSurfaced:
    def test_nested_pool_counts_and_warns_once(self, monkeypatch, capsys):
        from repro import obs
        from repro.bench import pool
        from repro.bench.runner import CaseSpec

        # Pretend we are inside a pool worker; any real pool here would
        # be a bug, so poison the executor.
        monkeypatch.setattr(pool, "_IN_POOL_WORKER", True)
        monkeypatch.setattr(
            pool, "ProcessPoolExecutor",
            lambda *a, **k: pytest.fail("nested pool was created"),
        )
        monkeypatch.setattr(pool, "_FALLBACK_WARNED", False)
        specs = [
            CaseSpec.make("Flash", "pr", "S8-Std", scale_divisor=20000),
            CaseSpec.make("Grape", "wcc", "S8-Std", scale_divisor=20000),
        ]
        with obs.tracing() as tracer:
            pool.run_cases(specs, jobs=4)
            pool.run_cases(specs, jobs=4)
        assert tracer.counters.snapshot().get(obs.POOL_FALLBACKS) == 2.0
        err = capsys.readouterr().err
        assert err.count("degraded to jobs=1") == 1

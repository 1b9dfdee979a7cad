"""Tests for the dynamic-workload experiment library (bench.dynamic_exp)."""

import pytest

from repro.bench.dynamic_exp import (
    PR_PARITY_ATOL,
    crash_replay_case,
    run_dynamic_case,
)
from repro.errors import BenchmarkError

#: Small-but-real configuration: a bulk-loaded 400-vertex stream with
#: three incremental windows keeps each test under a second.
SMALL = dict(num_vertices=400, batch_edges=40, num_batches=3)


class TestRunDynamicCase:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(BenchmarkError):
            run_dynamic_case("tc", **SMALL)

    def test_wcc_report_shape(self):
        report = run_dynamic_case("wcc", **SMALL)
        assert len(report.windows) == 4
        assert report.windows[0].mode == "peval"
        assert all(w.mode == "inceval" for w in report.windows[1:])
        assert all(w.parity == "exact" for w in report.windows)
        assert report.speedup > 1.0
        assert report.edges_per_second > 0
        assert len(report.fingerprint) == 64

    def test_pr_parity_certified(self):
        report = run_dynamic_case("pr", **SMALL)
        assert all(w.parity == "certified" for w in report.windows)
        assert report.max_abs_err <= PR_PARITY_ATOL

    def test_incremental_beats_recompute_every_window(self):
        report = run_dynamic_case("sssp", **SMALL)
        for w in report.windows[1:]:
            assert w.incremental_seconds < w.recompute_seconds, w.window


class TestCrashReplay:
    def test_bit_identical_recovery(self):
        result = crash_replay_case("wcc", crash_window=2, **SMALL)
        assert result["bit_identical"] is True
        assert result["replayed_windows"] >= 1
        assert result["recovery_seconds"] > 0
        assert len(result["fingerprint"]) == 64

    @pytest.mark.parametrize("window", [0, 4, -1])
    def test_crash_window_bounds_checked(self, window):
        with pytest.raises(BenchmarkError):
            crash_replay_case("wcc", crash_window=window, **SMALL)


class TestIncEvalGate:
    """IncEval must pay at the default stream size, four windows deep:
    at least 3x cheaper than recomputing, summed over the windows, and
    cheaper in every single window."""

    @pytest.mark.parametrize("algorithm", ["wcc", "pr"])
    def test_inceval_beats_recompute(self, algorithm):
        report = run_dynamic_case(algorithm, num_batches=4)
        assert report.speedup >= 3.0
        slow = [
            w.window for w in report.windows[1:]
            if w.incremental_seconds >= w.recompute_seconds
        ]
        assert slow == []

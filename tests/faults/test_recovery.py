"""Acceptance tests for crash recovery across all four engine families.

The design invariant: a crashed-and-recovered run must produce output
bit-identical to the failure-free run, and the timeline's reconstructed
failure-free trace must equal the failure-free run's trace
record-for-record.  Determinism makes the one recovery discipline,
replay-by-copy, exactly equivalent to re-execution.
"""

import numpy as np
import pytest

from repro import obs
from repro.cluster.spec import scale_out
from repro.datagen.fft import generate_fft
from repro.faults import EMPTY_SCHEDULE, FaultSchedule, MachineCrash
from repro.platforms.registry import get_platform

#: One representative platform per computing model, with an algorithm
#: that model supports and a superstep every run reaches.
ENGINE_FAMILIES = [
    ("Pregel+", "pr", 2),
    ("PowerGraph", "pr", 2),
    ("Grape", "pr", 2),
    ("G-thinker", "tc", 0),
]


@pytest.fixture(scope="module")
def graph():
    """Small deterministic power-law graph shared by all cases."""
    return generate_fft(200, alpha=40.0, seed=3).graph


@pytest.fixture(scope="module")
def cluster():
    """Four machines, so a crash leaves survivors."""
    return scale_out(4)


def traces_equal(a, b) -> bool:
    """Record-for-record bit equality of two work traces."""
    if len(a.steps) != len(b.steps):
        return False
    return all(
        np.array_equal(x.ops, y.ops)
        and np.array_equal(x.msg_count, y.msg_count)
        and np.array_equal(x.msg_bytes, y.msg_bytes)
        for x, y in zip(a.steps, b.steps)
    )


@pytest.mark.parametrize("platform_name,algorithm,crash_step", ENGINE_FAMILIES)
class TestCrashRecovery:
    def test_output_bit_identical(self, platform_name, algorithm, crash_step,
                                  graph, cluster):
        platform = get_platform(platform_name)
        baseline = platform.run(algorithm, graph, cluster)
        sched = FaultSchedule(crashes=(MachineCrash(crash_step, machine=1),))
        faulted = platform.run(algorithm, graph, cluster,
                               fault_schedule=sched, checkpoint_interval=2)
        assert np.array_equal(np.asarray(baseline.values),
                              np.asarray(faulted.values))
        assert len(faulted.timeline.crashes) == 1
        assert faulted.trace.supersteps > baseline.trace.supersteps

    def test_failure_free_trace_matches_baseline(self, platform_name,
                                                 algorithm, crash_step,
                                                 graph, cluster):
        platform = get_platform(platform_name)
        baseline = platform.run(algorithm, graph, cluster)
        sched = FaultSchedule(crashes=(MachineCrash(crash_step, machine=1),))
        faulted = platform.run(algorithm, graph, cluster,
                               fault_schedule=sched, checkpoint_interval=2)
        ff = faulted.timeline.failure_free_trace(faulted.trace)
        assert traces_equal(ff, baseline.trace)

    def test_same_schedule_same_priced_seconds(self, platform_name,
                                               algorithm, crash_step,
                                               graph, cluster):
        platform = get_platform(platform_name)
        sched = FaultSchedule(crashes=(MachineCrash(crash_step, machine=1),))
        first = platform.run(algorithm, graph, cluster,
                             fault_schedule=sched, checkpoint_interval=2)
        second = platform.run(algorithm, graph, cluster,
                              fault_schedule=sched, checkpoint_interval=2)
        assert first.priced.seconds == second.priced.seconds
        assert first.priced.recovery_seconds > 0
        # A crash at superstep 0 strikes before the first checkpoint.
        assert (first.priced.checkpoint_seconds > 0) == (crash_step > 0)

    def test_faulted_slower_than_failure_free(self, platform_name, algorithm,
                                              crash_step, graph, cluster):
        platform = get_platform(platform_name)
        baseline = platform.run(algorithm, graph, cluster)
        sched = FaultSchedule(crashes=(MachineCrash(crash_step, machine=1),))
        faulted = platform.run(algorithm, graph, cluster,
                               fault_schedule=sched, checkpoint_interval=2)
        assert faulted.priced.seconds > baseline.priced.seconds
        assert (faulted.metrics.failure_free_run_seconds
                == pytest.approx(baseline.priced.seconds))


@pytest.mark.parametrize("platform_name,algorithm,crash_step", ENGINE_FAMILIES)
def test_counters_count_each_superstep_once(platform_name, algorithm,
                                            crash_step, graph, cluster):
    """One counter rule under faults for every engine family: the
    ``supersteps`` and ``compute_ops`` counters see each logical
    superstep once, and replays are counted apart."""
    sched = FaultSchedule(crashes=(MachineCrash(crash_step, machine=1),))
    with obs.tracing() as tracer:
        run = get_platform(platform_name).run(
            algorithm, graph, cluster, fault_schedule=sched,
            checkpoint_interval=2,
        )
    count = tracer.counters.get
    assert count(obs.SUPERSTEPS_REPLAYED) > 0
    assert (count(obs.SUPERSTEPS) + count(obs.SUPERSTEPS_REPLAYED)
            == run.trace.supersteps)
    ff = run.timeline.failure_free_trace(run.trace)
    assert count(obs.COMPUTE_OPS) == ff.total_ops


@pytest.mark.parametrize("platform_name,algorithm,crash_step", ENGINE_FAMILIES)
def test_empty_schedule_is_bit_identical(platform_name, algorithm, crash_step,
                                         graph, cluster):
    """An empty schedule attaches no runtime: trace and price exactly
    match a run with no schedule at all (the parity invariant)."""
    platform = get_platform(platform_name)
    plain = platform.run(algorithm, graph, cluster)
    empty = platform.run(algorithm, graph, cluster,
                         fault_schedule=EMPTY_SCHEDULE)
    assert empty.timeline is None
    assert empty.priced == plain.priced
    assert traces_equal(empty.trace, plain.trace)
    assert empty.metrics.checkpoint_seconds == 0.0
    assert empty.metrics.failure_free_run_seconds is None


def test_two_crashes_recovered(graph, cluster):
    """Successive crashes (strictly increasing supersteps) both recover."""
    platform = get_platform("Pregel+")
    baseline = platform.run("pr", graph, cluster)
    sched = FaultSchedule(crashes=(
        MachineCrash(superstep=2, machine=1),
        MachineCrash(superstep=4, machine=3),
    ))
    faulted = platform.run("pr", graph, cluster, fault_schedule=sched,
                           checkpoint_interval=2)
    assert len(faulted.timeline.crashes) == 2
    assert np.array_equal(np.asarray(baseline.values),
                          np.asarray(faulted.values))
    ff = faulted.timeline.failure_free_trace(faulted.trace)
    assert traces_equal(ff, baseline.trace)


def test_two_engine_sections_recover(graph, cluster):
    """BC runs two engine loops (forward + backward); a crash in the
    second section still recovers bit-identically."""
    platform = get_platform("Pregel+")
    baseline = platform.run("bc", graph, cluster)
    forward_steps = baseline.trace.supersteps
    # Crash well into the run so it lands past the first section on this
    # graph (the global counter spans both sections).
    crash_at = forward_steps - 2
    sched = FaultSchedule(crashes=(MachineCrash(crash_at, machine=2),))
    faulted = platform.run("bc", graph, cluster, fault_schedule=sched,
                           checkpoint_interval=3)
    assert len(faulted.timeline.crashes) == 1
    assert np.array_equal(np.asarray(baseline.values),
                          np.asarray(faulted.values))
    assert traces_equal(faulted.timeline.failure_free_trace(faulted.trace),
                        baseline.trace)


def test_inert_crash_still_checkpoints(graph, cluster):
    """A crash scheduled past the end of the run never fires, but the
    non-empty schedule still pays for checkpoint protection."""
    platform = get_platform("Pregel+")
    sched = FaultSchedule(crashes=(MachineCrash(10**6, machine=0),))
    run = platform.run("pr", graph, cluster, fault_schedule=sched,
                       checkpoint_interval=2)
    assert run.timeline is not None
    assert not run.timeline.crashes
    assert len(run.timeline.checkpoints) > 0
    assert run.priced.checkpoint_seconds > 0
    assert run.priced.recovery_seconds == 0.0


def test_direct_metering_routines_recover(graph, cluster):
    """PowerGraph TC meters outside the GAS loop (recorder-managed);
    recovery there is replay-by-copy and stays bit-identical."""
    platform = get_platform("PowerGraph")
    baseline = platform.run("tc", graph, cluster)
    sched = FaultSchedule(crashes=(MachineCrash(0, machine=1),))
    faulted = platform.run("tc", graph, cluster, fault_schedule=sched,
                           checkpoint_interval=2)
    assert faulted.values == baseline.values
    assert len(faulted.timeline.crashes) == 1
    assert traces_equal(faulted.timeline.failure_free_trace(faulted.trace),
                        baseline.trace)


#: Literal fault timelines, one per recovery path: each engine loop
#: (vertex- and edge-centric, scalar and bulk), BC's two engine sections,
#: a two-crash schedule, ``checkpoint_interval=1``, Grape and G-thinker.
#: Columns: case, platform, algorithm, extra run options, crashes as
#: ``(superstep, machine)``, checkpoint interval, then the expected
#: checkpoints ``(superstep, trace_index)``, crashes ``(superstep,
#: machine, trace_index, rollback_to, replayed)``, ``step_supersteps``,
#: checkpoint seconds and recovery seconds.
PINNED_TIMELINES = [
    ('vertex-scalar', 'Pregel+', 'pr', {'engine_mode': 'scalar'}, ((2, 1),), 2,
     [(2, 2), (4, 5), (6, 7), (8, 9), (10, 11)],
     [(2, 1, 3, 2, 1)],
     [0, 1, 2, 2, 3, 4, 5, 6, 7, 8, 9, 10],
     0.28373333333333334, 2.3021004786807358),
    ('vertex-bulk', 'Pregel+', 'pr', {'engine_mode': 'bulk'}, ((2, 1),), 2,
     [(2, 2), (4, 5), (6, 7), (8, 9), (10, 11)],
     [(2, 1, 3, 2, 1)],
     [0, 1, 2, 2, 3, 4, 5, 6, 7, 8, 9, 10],
     0.28373333333333334, 2.3021004786807358),
    ('edge-scalar', 'PowerGraph', 'sssp', {'engine_mode': 'scalar'}, ((1, 2),), 2,
     [(2, 4)],
     [(1, 2, 2, 0, 2)],
     [0, 1, 0, 1, 2],
     0.1024, 4.690297019653319),
    ('edge-bulk', 'PowerGraph', 'sssp', {'engine_mode': 'bulk'}, ((1, 2),), 2,
     [(2, 4)],
     [(1, 2, 2, 0, 2)],
     [0, 1, 0, 1, 2],
     0.1024, 4.690297019653319),
    ('bc-two-sections', 'Pregel+', 'bc', {}, ((4, 2),), 3,
     [(3, 3)],
     [(4, 2, 5, 4, 1)],
     [0, 1, 2, 3, 4, 4, 5],
     0.0448, 2.1755254795140693),
    ('two-crashes', 'Flash', 'wcc', {}, ((2, 1), (4, 3)), 3,
     [(3, 6)],
     [(2, 1, 3, 0, 3), (4, 3, 8, 3, 2)],
     [0, 1, 2, 0, 1, 2, 3, 4, 3, 4],
     0.0512, 35.02213229819509),
    ('interval-1', 'GraphX', 'lpa', {}, ((3, 1),), 1,
     [(1, 1), (2, 2), (3, 3), (4, 5), (5, 6), (6, 7)],
     [(3, 1, 4, 3, 1)],
     [0, 1, 2, 3, 3, 4, 5],
     0.8959999999999999, 251.0264713472237),
    ('grape', 'Grape', 'pr', {}, ((2, 1),), 2,
     [(2, 2), (4, 5), (6, 7), (8, 9), (10, 11)],
     [(2, 1, 3, 2, 1)],
     [0, 1, 2, 2, 3, 4, 5, 6, 7, 8, 9],
     0.20266666666666663, 2.6249107025001446),
    ('gthinker', 'G-thinker', 'tc', {}, ((0, 1),), 2,
     [],
     [(0, 1, 1, 0, 1)],
     [0, 0],
     0.0, 5.256230103611255),
]


@pytest.mark.parametrize(
    "case,platform_name,algorithm,extra,crashes,interval,"
    "checkpoints,crash_events,step_supersteps,checkpoint_s,recovery_s",
    PINNED_TIMELINES,
    ids=[row[0] for row in PINNED_TIMELINES],
)
def test_timeline_pinned(case, platform_name, algorithm, extra, crashes,
                         interval, checkpoints, crash_events, step_supersteps,
                         checkpoint_s, recovery_s, graph, cluster):
    """Recovery must not move a checkpoint, a crash, or a replayed record:
    the whole timeline is pinned, not only the recovered output."""
    sched = FaultSchedule(
        crashes=tuple(MachineCrash(s, machine=m) for s, m in crashes)
    )
    run = get_platform(platform_name).run(
        algorithm, graph, cluster, fault_schedule=sched,
        checkpoint_interval=interval, **extra,
    )
    timeline = run.timeline
    assert [(c.superstep, c.trace_index)
            for c in timeline.checkpoints] == checkpoints
    assert [(c.superstep, c.machine, c.trace_index, c.rollback_to,
             c.replayed) for c in timeline.crashes] == crash_events
    assert timeline.step_supersteps == step_supersteps
    assert len(run.trace.steps) == len(step_supersteps)
    assert run.priced.checkpoint_seconds == pytest.approx(checkpoint_s,
                                                          rel=1e-12)
    assert run.priced.recovery_seconds == pytest.approx(recovery_s,
                                                        rel=1e-12)

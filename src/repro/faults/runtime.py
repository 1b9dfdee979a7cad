"""Checkpoint/crash/recovery execution: the *what happens* half.

One :class:`FaultRuntime` accompanies one platform run.  It attaches to
the run's :class:`~repro.cluster.cost.TraceRecorder` and observes every
sealed superstep through :meth:`FaultRuntime.on_sealed`, whichever
engine family drives ``begin/end_superstep``.  Every
``checkpoint_interval`` supersteps it records a checkpoint boundary;
when a scheduled crash fires at a barrier it appends *copies* of the
records since the last checkpoint as the replay.  Deterministic
execution makes replay-by-copy exactly equivalent to re-execution — the
re-executed supersteps would seal bit-identical
:class:`~repro.cluster.cost.SuperstepRecord`\\ s and reach the same
final state — so the original (wasted) attempts stay in the trace,
followed by the replayed supersteps, and the algorithm output equals
the failure-free run's exactly.  Engines with their own superstep loop
call :meth:`FaultRuntime.new_section` as each loop starts, because
checkpoint cadence restarts at every loop (BC runs two).

The product is a :class:`FaultTimeline` — the positions of checkpoints
and crashes within the trace plus the logical superstep of every sealed
record — which :func:`repro.cluster.cost.price_trace` consumes to price
checkpoint writes, failover, state re-placement, and replayed work, and
from which the bit-identical failure-free trace can be reconstructed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.cluster.cost import SuperstepRecord, TraceRecorder, WorkTrace
from repro.errors import PlatformError
from repro.faults.schedule import FaultSchedule
from repro.obs import (
    CHECKPOINTS_WRITTEN,
    CRASHES_INJECTED,
    SUPERSTEPS_REPLAYED,
    get_tracer,
)

__all__ = ["CheckpointEvent", "CrashEvent", "FaultTimeline", "FaultRuntime"]


@dataclass(frozen=True)
class CheckpointEvent:
    """One checkpoint write.

    ``superstep`` is the logical superstep the checkpoint *protects up
    to* (state before that superstep executes); ``trace_index`` is the
    position in the trace's step list at which the write is priced.
    """

    superstep: int
    trace_index: int


@dataclass(frozen=True)
class CrashEvent:
    """One machine crash and the recovery it triggered.

    ``superstep`` is the logical superstep whose barrier the crash fired
    at; ``machine`` the lost machine; ``rollback_to`` the logical
    superstep execution resumed from (the last checkpoint);
    ``trace_index`` the position of the first *replayed* record in the
    trace; ``replayed`` how many records the recovery replayed
    (``superstep - rollback_to + 1``).
    """

    superstep: int
    machine: int
    trace_index: int
    rollback_to: int
    replayed: int


@dataclass
class FaultTimeline:
    """Everything pricing needs to know about one faulted execution.

    Attributes
    ----------
    schedule:
        The :class:`~repro.faults.schedule.FaultSchedule` that drove the
        run (pricing reads stragglers and the retransmission seed off
        it).
    checkpoint_interval:
        Supersteps between checkpoint writes.
    checkpoint_bytes:
        Size of one checkpoint image (the platform's per-vertex state).
    checkpoints / crashes:
        The events, in trace order.
    step_supersteps:
        The *logical* superstep of every sealed trace record, replays
        included — aligned index-for-index with ``trace.steps``.
    """

    schedule: FaultSchedule
    checkpoint_interval: int
    checkpoint_bytes: float
    checkpoints: list[CheckpointEvent] = field(default_factory=list)
    crashes: list[CrashEvent] = field(default_factory=list)
    step_supersteps: list[int] = field(default_factory=list)

    def failure_free_trace(self, trace: WorkTrace) -> WorkTrace:
        """The trace the run would have produced with no faults.

        Takes the first sealed record of each logical superstep
        (replayed attempts are bit-identical, so any occurrence would
        do) — valid because metered records are placement- and
        cluster-independent.
        """
        seen: set[int] = set()
        steps: list[SuperstepRecord] = []
        for record, superstep in zip(trace.steps, self.step_supersteps):
            if superstep not in seen:
                seen.add(superstep)
                steps.append(record)
        return WorkTrace(parts=trace.parts, steps=steps)

    def replayed_steps(self) -> int:
        """Total records replayed by recoveries."""
        return sum(crash.replayed for crash in self.crashes)


class FaultRuntime:
    """Drives checkpoints, crash injection, and replay for one run.

    Construct with the run's schedule and cluster machine count, then
    :meth:`attach` to the run's recorder, which reports every sealed
    superstep to :meth:`on_sealed`.  Engines with their own superstep
    loop call :meth:`new_section` as the loop starts.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        checkpoint_interval: int,
        machines: int,
        *,
        checkpoint_bytes: float = 0.0,
    ) -> None:
        if checkpoint_interval < 1:
            raise PlatformError(
                f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
            )
        self.schedule = schedule
        self.interval = int(checkpoint_interval)
        self.machines = int(machines)
        self.timeline = FaultTimeline(
            schedule=schedule,
            checkpoint_interval=self.interval,
            checkpoint_bytes=float(checkpoint_bytes),
        )
        self._trace: WorkTrace | None = None
        self._crashes = deque(schedule.crashes)
        self._dead: set[int] = set()
        self._counter = 0        # next global (logical) superstep to seal
        self._base = 0           # section's first global superstep
        self._ckpt_index = 0     # trace index recovery replays from

    # -- wiring ---------------------------------------------------------

    def attach(self, recorder: TraceRecorder) -> None:
        """Wire this runtime to ``recorder`` (and its trace)."""
        recorder.faults = self
        self._trace = recorder.trace

    def new_section(self) -> None:
        """Mark a section boundary: checkpoint cadence restarts here.

        Engines call this at the start of every superstep loop (BC runs
        two).  The boundary is a free implicit checkpoint — the loop's
        initial state exists on every machine before any superstep runs,
        and earlier results were already extracted — so a crash before
        the next periodic checkpoint replays from here.
        """
        self._base = self._counter
        self._ckpt_index = len(self._trace.steps)

    def on_sealed(self) -> None:
        """Observe one sealed superstep.

        Called by ``TraceRecorder.end_superstep``.  Advances the global
        counter, appends replay copies on a due crash, and records
        periodic checkpoint boundaries.
        """
        if self._trace is None:
            return
        s = self._counter
        self.timeline.step_supersteps.append(s)
        self._counter = s + 1
        if self._crash_due(s):
            crash = self._crashes.popleft()
            end = len(self._trace.steps)
            rollback_to = self.timeline.step_supersteps[self._ckpt_index]
            # Deterministic execution means re-executing the lost
            # supersteps would seal records bit-identical to the
            # originals, so the replay is appended by copy.
            replay = self._trace.steps[self._ckpt_index:end]
            replay_steps = self.timeline.step_supersteps[self._ckpt_index:end]
            self._record_crash(crash, trace_index=end,
                               rollback_to=rollback_to, replayed=len(replay))
            self._trace.steps.extend(
                SuperstepRecord(ops=r.ops, msg_count=r.msg_count,
                                msg_bytes=r.msg_bytes)
                for r in replay
            )
            self.timeline.step_supersteps.extend(replay_steps)
            # A later crash before the next checkpoint replays from the
            # replay copies — the same contiguous logical range.
            self._ckpt_index = end
        if (s + 1 - self._base) % self.interval == 0:
            self._ckpt_index = len(self._trace.steps)
            self._record_checkpoint(s + 1)

    # -- internals ------------------------------------------------------

    def _crash_due(self, s: int) -> bool:
        """Whether a live crash is scheduled at superstep ``s``.

        Crashes naming machines the cluster does not have (or machines
        already dead) are consumed silently — they are inert under this
        configuration.
        """
        while self._crashes and self._crashes[0].superstep == s:
            crash = self._crashes[0]
            if crash.machine >= self.machines or crash.machine in self._dead:
                self._crashes.popleft()
                continue
            survivors = self.machines - len(self._dead) - 1
            if survivors < 1:
                raise PlatformError(
                    f"fault schedule kills the last machine at superstep "
                    f"{s}; no survivors remain to recover on"
                )
            return True
        return False

    def _record_checkpoint(self, superstep: int) -> None:
        """Append a :class:`CheckpointEvent` and feed the obs counters."""
        assert self._trace is not None
        self.timeline.checkpoints.append(
            CheckpointEvent(superstep=superstep,
                            trace_index=len(self._trace.steps))
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add(CHECKPOINTS_WRITTEN, 1.0)

    def _record_crash(
        self, crash, *, trace_index: int, rollback_to: int, replayed: int
    ) -> None:
        """Append a :class:`CrashEvent`, mark the machine dead, and emit
        the crash/rollback observability signals."""
        self._dead.add(crash.machine)
        event = CrashEvent(
            superstep=crash.superstep,
            machine=crash.machine,
            trace_index=trace_index,
            rollback_to=rollback_to,
            replayed=replayed,
        )
        self.timeline.crashes.append(event)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add(CRASHES_INJECTED, 1.0)
            tracer.add(SUPERSTEPS_REPLAYED, float(replayed))
            tracer.record_span(
                f"fault/crash/machine{crash.machine}", 0.0,
                category="fault", superstep=crash.superstep,
                rollback_to=rollback_to, replayed=replayed,
            )

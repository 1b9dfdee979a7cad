"""repro.faults — deterministic fault injection and recovery.

The paper's 16-machine evaluation implicitly assumes a failure-free
cluster; every production platform it benchmarks ships superstep
checkpointing and recovery because real clusters lose machines mid-job.
This package grows the cost-model simulator that extra axis:

* :mod:`repro.faults.schedule` — :class:`FaultSchedule`, a frozen,
  hashable, fully seeded description of what goes wrong during a run
  (machine crashes at named supersteps, straggler slowdown windows,
  message retransmission rates, transient pre-admission failures).  No
  wall-clock randomness anywhere: the same schedule always produces the
  same execution and the same priced seconds.
* :mod:`repro.faults.runtime` — :class:`FaultRuntime`, the execution
  half: superstep-granular checkpoints, crash injection at barriers,
  and, for every engine family, recovery by copying the records since
  the last checkpoint (exact: execution is deterministic).  It produces a :class:`FaultTimeline` the pricing layer
  (:func:`repro.cluster.cost.price_trace`) consumes to add
  checkpoint-write and recovery-replay cost terms.

Attach a schedule to any run with the shared engine options
(``platform.run(..., fault_schedule=..., checkpoint_interval=...)``);
see ``docs/faults.md`` for the schedule format, checkpoint semantics,
and a worked recovery trace.
"""

from repro.faults.schedule import (
    EMPTY_SCHEDULE,
    FaultSchedule,
    MachineCrash,
    StragglerWindow,
)
from repro.faults.runtime import (
    CheckpointEvent,
    CrashEvent,
    FaultRuntime,
    FaultTimeline,
)

__all__ = [
    "FaultSchedule",
    "MachineCrash",
    "StragglerWindow",
    "EMPTY_SCHEDULE",
    "FaultRuntime",
    "FaultTimeline",
    "CheckpointEvent",
    "CrashEvent",
]

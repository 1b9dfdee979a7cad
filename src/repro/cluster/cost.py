"""BSP cost model: work traces and their pricing.

The engines in :mod:`repro.platforms` *meter* the work a distributed
execution performs — compute operations and messages at the granularity
of 16 logical graph parts, superstep by superstep — into a
:class:`WorkTrace`.  :func:`price_trace` then converts a trace into
simulated seconds under any :class:`~repro.cluster.spec.ClusterSpec` by
mapping parts onto machines.

Separating metering from pricing means one metered run yields the entire
scaling story: the scale-up experiment (Fig. 11) re-prices the same trace
under 1–32 threads, and the scale-out experiment (Fig. 12) re-maps the
same 16 parts onto 1–16 machines (messages between parts co-located on a
machine become local, exactly as on real hardware).

Per superstep the price is ``t_compute + t_network + t_barrier``:

* ``t_compute = max_machine_ops * multiplier / (rate * amdahl(threads))``
  — the max over machines captures load imbalance;
* ``t_network = remote_wire_bytes / aggregate_bandwidth + latency``;
* ``t_barrier`` grows with ``log2(machines)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.spec import ClusterSpec
from repro.errors import ClusterConfigError, OutOfMemoryError
from repro.obs import get_tracer, note_superstep

__all__ = [
    "NUM_PARTS",
    "CostParameters",
    "SuperstepRecord",
    "WorkTrace",
    "TraceRecorder",
    "PricedRun",
    "price_trace",
    "amdahl_efficiency",
    "check_memory",
]

#: Number of logical graph parts every trace is metered at.  16 matches
#: the paper's maximum machine count; any machine count from 1 to 16 can
#: be priced from the same trace.
NUM_PARTS = 16


@dataclass(frozen=True)
class CostParameters:
    """Platform-dependent constants of the cost model.

    These constant factors differentiate platforms sharing a computing
    model (e.g. GraphX's JVM/RDD overhead vs. a C++ engine); values live
    in the per-platform profiles.

    Attributes
    ----------
    compute_multiplier:
        Cycles of overhead per metered operation (1.0 = lean C++).
    parallel_fraction:
        Amdahl parallel fraction for intra-machine thread scaling.
    per_message_cpu_ops:
        CPU operations for handling one message (dispatch + buffering).
    remote_message_multiplier:
        Extra CPU factor for messages that cross machines
        (serialization); split between sender and receiver.
    bytes_per_message_overhead:
        Envelope bytes added to each remote message.
    barrier_factor:
        Multiplier on the cluster's base barrier cost (Spark job
        scheduling is expensive; block-centric engines sync less state).
    startup_seconds:
        Fixed job-submission overhead.
    broadcast_bytes_per_superstep:
        Bytes of global state broadcast to every machine each superstep
        (Flash's global vertex status); costs nothing on one machine.
    work_granularity_ops:
        Parallel slackness: a superstep with W metered ops can use at
        most ``W / work_granularity_ops`` threads effectively.  Small
        frontiers (sequential algorithms) therefore scale worse than
        bulk supersteps (TC), reproducing the paper's per-algorithm
        scaling ordering.
    remote_parallel_fraction:
        Amdahl fraction for *remote-message handling*: network-stack
        serialization parallelizes far worse than graph compute, which
        is why every platform scales out worse than it scales up
        (Section 8.3).  Platforms that batch/combine messages well
        (Pregel+) have a high value; chatty unbatched senders (Flash)
        a low one.
    """

    compute_multiplier: float = 1.0
    parallel_fraction: float = 0.95
    per_message_cpu_ops: float = 2.0
    remote_message_multiplier: float = 3.0
    bytes_per_message_overhead: float = 16.0
    barrier_factor: float = 1.0
    startup_seconds: float = 0.0
    broadcast_bytes_per_superstep: float = 0.0
    work_granularity_ops: float = 24.0
    remote_parallel_fraction: float = 0.75

    def __post_init__(self) -> None:
        if self.compute_multiplier <= 0:
            raise ClusterConfigError("compute_multiplier must be positive")
        if not 0.0 <= self.parallel_fraction <= 1.0:
            raise ClusterConfigError("parallel_fraction must be in [0, 1]")
        if self.work_granularity_ops <= 0:
            raise ClusterConfigError("work_granularity_ops must be positive")


def amdahl_efficiency(threads: int, parallel_fraction: float) -> float:
    """Amdahl speedup of ``threads`` threads over one."""
    if threads < 1:
        raise ClusterConfigError(f"threads must be >= 1, got {threads}")
    serial = 1.0 - parallel_fraction
    return 1.0 / (serial + parallel_fraction / threads)


@dataclass
class SuperstepRecord:
    """Metered work of one superstep at part granularity."""

    ops: np.ndarray          # (P,) compute operations per part
    msg_count: np.ndarray    # (P, P) messages part i -> part j
    msg_bytes: np.ndarray    # (P, P) payload bytes part i -> part j


@dataclass
class WorkTrace:
    """The complete metered record of one algorithm run."""

    parts: int = NUM_PARTS
    steps: list[SuperstepRecord] = field(default_factory=list)

    @property
    def supersteps(self) -> int:
        """Number of metered supersteps."""
        return len(self.steps)

    @property
    def total_ops(self) -> float:
        """Compute operations across all parts and supersteps."""
        return float(sum(step.ops.sum() for step in self.steps))

    @property
    def total_messages(self) -> int:
        """Messages across all part pairs and supersteps."""
        return int(sum(step.msg_count.sum() for step in self.steps))

    @property
    def total_message_bytes(self) -> float:
        """Payload bytes across all part pairs and supersteps."""
        return float(sum(step.msg_bytes.sum() for step in self.steps))


class TraceRecorder:
    """Accumulates a :class:`WorkTrace` during engine execution.

    When a run carries a fault schedule, the platform attaches a
    :class:`repro.faults.FaultRuntime` (via its ``attach`` method, which
    sets :attr:`faults`); every sealed superstep is then reported to the
    runtime so crashes fire at the correct barriers even for engines
    without a central superstep loop.
    """

    def __init__(self, parts: int = NUM_PARTS) -> None:
        if parts < 1:
            raise ClusterConfigError(f"parts must be >= 1, got {parts}")
        self.parts = parts
        self.trace = WorkTrace(parts=parts, steps=[])
        #: the run's fault runtime, if a schedule is attached
        self.faults = None
        self._ops: np.ndarray | None = None
        self._count: np.ndarray | None = None
        self._bytes: np.ndarray | None = None

    def begin_superstep(self) -> None:
        """Open a new superstep window."""
        if self._ops is not None:
            raise ClusterConfigError("begin_superstep called twice without end")
        self._ops = np.zeros(self.parts)
        self._count = np.zeros((self.parts, self.parts))
        self._bytes = np.zeros((self.parts, self.parts))

    def add_compute(self, part: int, ops: float) -> None:
        """Charge compute operations to one part.

        Raises :class:`~repro.errors.ClusterConfigError` for part ids
        outside ``[0, parts)`` — a buggy partition map must surface, not
        be silently wrapped into a valid part.
        """
        self._require_open()
        self._ops[self._check_part(part)] += ops

    def add_compute_counts(self, ops: np.ndarray) -> None:
        """Charge a ``(parts,)`` vector of compute operations: one
        addition per part, equal to one :meth:`add_compute` per non-zero
        part (a zero entry adds ``+0.0``)."""
        self._require_open()
        if np.shape(ops) != (self.parts,):
            raise ClusterConfigError(
                f"ops vector must be ({self.parts},), got {np.shape(ops)}"
            )
        self._ops += ops

    def add_message(
        self, src_part: int, dst_part: int, payload_bytes: float, count: int = 1
    ) -> None:
        """Charge ``count`` messages totalling ``payload_bytes * count``."""
        self._require_open()
        i, j = self._check_part(src_part), self._check_part(dst_part)
        self._count[i, j] += count
        self._bytes[i, j] += payload_bytes * count

    def add_message_counts(
        self, counts: np.ndarray, total_bytes: np.ndarray
    ) -> None:
        """Charge a whole ``(parts, parts)`` matrix of messages at once.

        ``counts[i, j]`` messages totalling ``total_bytes[i, j]`` go from
        part ``i`` to part ``j``.  Every cell takes exactly one addition,
        so for uniform payloads (``total_bytes = nbytes * counts``) this
        charges the same floats as one :meth:`add_message` per non-zero
        cell: zero cells add ``+0.0``, and ``nbytes * count`` is the
        same product either way.
        """
        self._require_open()
        shape = (self.parts, self.parts)
        if np.shape(counts) != shape or np.shape(total_bytes) != shape:
            raise ClusterConfigError(
                f"message matrices must be {shape}, got "
                f"{np.shape(counts)} and {np.shape(total_bytes)}"
            )
        self._count += counts
        self._bytes += total_bytes

    def _check_part(self, part: int) -> int:
        if not 0 <= part < self.parts:
            raise ClusterConfigError(
                f"part id {part} out of range [0, {self.parts})"
            )
        return part

    def end_superstep(self) -> None:
        """Seal the open superstep into the trace.

        When a tracer is installed (:func:`repro.obs.get_tracer`), the
        sealed step's totals are also fed to the observability counters
        — a read-only roll-up that cannot perturb the trace itself.
        """
        self._require_open()
        record = SuperstepRecord(ops=self._ops, msg_count=self._count,
                                 msg_bytes=self._bytes)
        self.trace.steps.append(record)
        self._ops = self._count = self._bytes = None
        tracer = get_tracer()
        if tracer.enabled:
            note_superstep(tracer, record)
        if self.faults is not None:
            self.faults.on_sealed()

    def _require_open(self) -> None:
        if self._ops is None:
            raise ClusterConfigError("no open superstep; call begin_superstep")


@dataclass(frozen=True)
class PricedRun:
    """Simulated timing of one trace under one cluster configuration.

    ``checkpoint_seconds`` and ``recovery_seconds`` are zero on
    failure-free runs; with a fault timeline they hold the checkpoint
    writes and the failover + state re-placement + replayed work,
    respectively.  The failure-free phase buckets (compute / network /
    barrier) never include replayed supersteps — recovery is priced in
    its own bucket so overhead is directly readable.
    """

    seconds: float
    compute_seconds: float
    network_seconds: float
    barrier_seconds: float
    supersteps: int
    checkpoint_seconds: float = 0.0
    recovery_seconds: float = 0.0

    def breakdown(self) -> dict[str, float]:
        """Phase breakdown for reporting."""
        return {
            "total_s": self.seconds,
            "compute_s": self.compute_seconds,
            "network_s": self.network_seconds,
            "barrier_s": self.barrier_seconds,
            "checkpoint_s": self.checkpoint_seconds,
            "recovery_s": self.recovery_seconds,
            "supersteps": float(self.supersteps),
        }


def part_placement(parts: int, machines: int) -> np.ndarray:
    """Default round-robin part → machine assignment."""
    return np.arange(parts, dtype=np.int64) % machines


def price_trace(
    trace: WorkTrace,
    spec: ClusterSpec,
    params: CostParameters,
    *,
    placement: np.ndarray | None = None,
    faults=None,
) -> PricedRun:
    """Convert a metered trace into simulated seconds under ``spec``.

    ``faults`` is an optional :class:`repro.faults.FaultTimeline`; when
    given, pricing additionally models checkpoint writes, machine
    crashes (placement re-assignment onto survivors, failover and
    restore overhead, replayed supersteps priced into a separate
    recovery bucket), straggler slowdown windows, and seeded message
    retransmission.  With ``faults=None`` the arithmetic below is the
    exact failure-free path, bit-identical to earlier releases.
    """
    if faults is not None:
        return _price_trace_faulted(trace, spec, params, placement, faults)
    machines = spec.machines
    if placement is None:
        placement = part_placement(trace.parts, machines)
    elif placement.shape[0] != trace.parts:
        raise ClusterConfigError(
            f"placement must cover {trace.parts} parts, got {placement.shape[0]}"
        )

    eff = amdahl_efficiency(spec.threads_per_machine, params.parallel_fraction)
    same_machine = placement[:, None] == placement[None, :]

    compute_s = network_s = barrier_s = 0.0
    barrier_spread = 1.0 + float(np.log2(machines))
    per_barrier = spec.barrier_base_seconds * params.barrier_factor * barrier_spread

    for step in trace.steps:
        machine_ops = np.bincount(placement, weights=step.ops, minlength=machines)

        local_cnt = np.where(same_machine, step.msg_count, 0.0)
        remote_cnt = np.where(same_machine, 0.0, step.msg_count)
        remote_bytes = np.where(same_machine, 0.0, step.msg_bytes)

        # Local messages: dispatch CPU at the owning machine.
        local_cpu = local_cnt.sum(axis=1) * params.per_message_cpu_ops
        machine_ops += np.bincount(placement, weights=local_cpu, minlength=machines)

        peak_ops = float(machine_ops.max())
        # Parallel slackness: a small superstep cannot occupy all threads.
        slack_limit = max(1.0, peak_ops / params.work_granularity_ops)
        step_eff = min(eff, slack_limit)
        rate = spec.ops_per_second_per_thread * step_eff
        compute_s += peak_ops * params.compute_multiplier / rate

        # Remote messages: serialization CPU split between sender and
        # receiver, priced at the network stack's (poorer) thread
        # scaling — the reason scale-out lags scale-up.
        remote_cpu = params.per_message_cpu_ops * params.remote_message_multiplier
        send_cpu = remote_cnt.sum(axis=1) * remote_cpu / 2.0
        recv_cpu = remote_cnt.sum(axis=0) * remote_cpu / 2.0
        msg_ops = (
            np.bincount(placement, weights=send_cpu, minlength=machines)
            + np.bincount(placement, weights=recv_cpu, minlength=machines)
        )
        peak_msg_ops = float(msg_ops.max())
        if peak_msg_ops > 0:
            msg_eff = amdahl_efficiency(
                spec.threads_per_machine, params.remote_parallel_fraction
            )
            msg_rate = spec.ops_per_second_per_thread * msg_eff
            compute_s += peak_msg_ops * params.compute_multiplier / msg_rate

        wire = float(remote_bytes.sum()) + float(
            remote_cnt.sum()
        ) * params.bytes_per_message_overhead
        if machines > 1:
            wire += params.broadcast_bytes_per_superstep * (machines - 1)
        if wire > 0:
            aggregate_bw = spec.network_bandwidth_bytes_per_second * machines
            network_s += wire / aggregate_bw + spec.network_latency_seconds

        barrier_s += per_barrier

    total = params.startup_seconds + compute_s + network_s + barrier_s
    return PricedRun(
        seconds=total,
        compute_seconds=compute_s,
        network_seconds=network_s,
        barrier_seconds=barrier_s,
        supersteps=trace.supersteps,
    )


def _price_trace_faulted(
    trace: WorkTrace,
    spec: ClusterSpec,
    params: CostParameters,
    placement: np.ndarray | None,
    faults,
) -> PricedRun:
    """Fault-aware pricing of a trace under a ``FaultTimeline``.

    The per-superstep arithmetic matches :func:`price_trace` exactly;
    on top of it, in trace order:

    * **checkpoint writes** at their recorded positions —
      ``checkpoint_bytes`` across the currently alive machines' disks;
    * **crashes**: the dead machine's parts move round-robin onto the
      sorted survivors (effective from the first replayed record), the
      barrier spread and aggregate bandwidth shrink to the survivor
      count, and a per-crash ``failover + checkpoint restore + lost-part
      state re-shipment`` overhead lands in the recovery bucket;
    * **replayed records** (marked by the crash events) are priced with
      the same formulas but accumulate into ``recovery_seconds`` rather
      than the failure-free phase buckets;
    * **stragglers** scale each machine's compute time inside their
      windows (only binding when the slowed machine is the critical
      path);
    * **retransmissions** inflate remote wire bytes and remote-message
      CPU by a binomial draw keyed on ``(schedule.seed, step index)``.
    """
    machines = spec.machines
    if placement is None:
        placement = part_placement(trace.parts, machines)
    elif placement.shape[0] != trace.parts:
        raise ClusterConfigError(
            f"placement must cover {trace.parts} parts, got {placement.shape[0]}"
        )
    placement = placement.copy()

    schedule = faults.schedule
    steps = trace.steps
    n_steps = len(steps)
    step_supersteps = faults.step_supersteps
    if len(step_supersteps) != n_steps:
        raise ClusterConfigError(
            f"fault timeline records {len(step_supersteps)} sealed steps "
            f"but the trace has {n_steps}"
        )

    recovery_mask = np.zeros(max(n_steps, 1), dtype=bool)
    crashes_at: dict[int, list] = {}
    for crash in faults.crashes:
        recovery_mask[crash.trace_index:crash.trace_index + crash.replayed] = True
        crashes_at.setdefault(crash.trace_index, []).append(crash)
    checkpoints_at: dict[int, int] = {}
    for ck in faults.checkpoints:
        checkpoints_at[ck.trace_index] = checkpoints_at.get(ck.trace_index, 0) + 1

    eff = amdahl_efficiency(spec.threads_per_machine, params.parallel_fraction)
    alive = np.ones(machines, dtype=bool)
    same_machine = placement[:, None] == placement[None, :]

    compute_s = network_s = barrier_s = 0.0
    checkpoint_s = recovery_s = 0.0
    alive_count = machines
    per_barrier = (spec.barrier_base_seconds * params.barrier_factor
                   * (1.0 + float(np.log2(machines))))
    disk_bw = spec.disk_bandwidth_bytes_per_second
    ckpt_bytes = float(faults.checkpoint_bytes)

    for t in range(n_steps + 1):
        # Events anchored at this trace position (writes happen at the
        # barrier *before* record t is priced; index n_steps catches a
        # trailing checkpoint after the final superstep).
        checkpoint_s += checkpoints_at.get(t, 0) * (
            ckpt_bytes / (alive_count * disk_bw)
        )
        for crash in crashes_at.get(t, ()):
            if crash.machine >= machines or not alive[crash.machine]:
                continue  # inert under this machine count
            alive[crash.machine] = False
            survivors = np.flatnonzero(alive)
            if survivors.size == 0:
                raise ClusterConfigError(
                    "fault timeline kills every machine; nothing left "
                    "to price recovery on"
                )
            lost = np.flatnonzero(placement == crash.machine)
            placement[lost] = survivors[np.arange(lost.size) % survivors.size]
            same_machine = placement[:, None] == placement[None, :]
            alive_count = int(survivors.size)
            per_barrier = (spec.barrier_base_seconds * params.barrier_factor
                           * (1.0 + float(np.log2(alive_count))))
            restore_read = ckpt_bytes / (alive_count * disk_bw)
            reship = 0.0
            if lost.size:
                lost_state = ckpt_bytes * (lost.size / trace.parts)
                reship = (lost_state / spec.network_bandwidth_bytes_per_second
                          + spec.network_latency_seconds)
            recovery_s += spec.failover_seconds + restore_read + reship
        if t == n_steps:
            break

        step = steps[t]
        machine_ops = np.bincount(placement, weights=step.ops,
                                  minlength=machines)

        local_cnt = np.where(same_machine, step.msg_count, 0.0)
        remote_cnt = np.where(same_machine, 0.0, step.msg_count)
        remote_bytes = np.where(same_machine, 0.0, step.msg_bytes)

        local_cpu = local_cnt.sum(axis=1) * params.per_message_cpu_ops
        machine_ops += np.bincount(placement, weights=local_cpu,
                                   minlength=machines)

        slow = schedule.slowdown(machines, step_supersteps[t])

        peak_ops = float(machine_ops.max())
        slack_limit = max(1.0, peak_ops / params.work_granularity_ops)
        step_eff = min(eff, slack_limit)
        rate = spec.ops_per_second_per_thread * step_eff
        peak_eff_ops = (
            peak_ops if slow is None else float((machine_ops * slow).max())
        )
        step_compute = peak_eff_ops * params.compute_multiplier / rate

        remote_total = float(remote_cnt.sum())
        retrans = 1.0
        if schedule.retransmit_rate > 0.0 and remote_total > 0:
            rng = np.random.default_rng((schedule.seed, t))
            extra = int(rng.binomial(int(remote_total),
                                     schedule.retransmit_rate))
            retrans = 1.0 + extra / remote_total

        remote_cpu = params.per_message_cpu_ops * params.remote_message_multiplier
        send_cpu = remote_cnt.sum(axis=1) * remote_cpu / 2.0
        recv_cpu = remote_cnt.sum(axis=0) * remote_cpu / 2.0
        msg_ops = (
            np.bincount(placement, weights=send_cpu, minlength=machines)
            + np.bincount(placement, weights=recv_cpu, minlength=machines)
        )
        peak_msg_ops = (
            float(msg_ops.max()) if slow is None
            else float((msg_ops * slow).max())
        )
        if peak_msg_ops > 0:
            msg_eff = amdahl_efficiency(
                spec.threads_per_machine, params.remote_parallel_fraction
            )
            msg_rate = spec.ops_per_second_per_thread * msg_eff
            step_compute += (peak_msg_ops * retrans * params.compute_multiplier
                             / msg_rate)

        wire = float(remote_bytes.sum()) + remote_total * \
            params.bytes_per_message_overhead
        wire *= retrans
        if alive_count > 1:
            wire += params.broadcast_bytes_per_superstep * (alive_count - 1)
        step_network = 0.0
        if wire > 0:
            aggregate_bw = spec.network_bandwidth_bytes_per_second * alive_count
            step_network = wire / aggregate_bw + spec.network_latency_seconds

        if recovery_mask[t]:
            recovery_s += step_compute + step_network + per_barrier
        else:
            compute_s += step_compute
            network_s += step_network
            barrier_s += per_barrier

    total = (params.startup_seconds + compute_s + network_s + barrier_s
             + checkpoint_s + recovery_s)
    return PricedRun(
        seconds=total,
        compute_seconds=compute_s,
        network_seconds=network_s,
        barrier_seconds=barrier_s,
        supersteps=trace.supersteps,
        checkpoint_seconds=checkpoint_s,
        recovery_seconds=recovery_s,
    )


def check_memory(required_bytes: float, spec: ClusterSpec, *, what: str) -> None:
    """Raise :class:`OutOfMemoryError` when a working set exceeds RAM."""
    if required_bytes > spec.total_memory_bytes:
        raise OutOfMemoryError(
            f"{what} needs {required_bytes / 1e6:.1f} MB but the cluster has "
            f"{spec.total_memory_bytes / 1e6:.1f} MB "
            f"({spec.machines} machines x "
            f"{spec.memory_per_machine_bytes / 1e6:.1f} MB)"
        )

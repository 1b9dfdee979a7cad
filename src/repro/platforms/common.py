"""Shared helpers for platform algorithm implementations.

This module owns the **engine options** vocabulary: every platform's
``run()`` accepts the same keyword knobs (``engine_mode``,
``fault_schedule``, ``checkpoint_interval``), and
:func:`parse_engine_options` is the single place they are popped,
validated, and normalized into an :class:`EngineOptions`.  The vertex-
and edge-centric platforms used to each pop ``engine_mode`` themselves
with silently-diverging defaults; now an unknown mode raises one clear
:class:`~repro.errors.PlatformError` everywhere.

The flat-CSR vectorization primitives (``expand_segments``,
``forward_edge_arrays``, …) live in :mod:`repro.platforms.kernels`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.graph import Graph
from repro.errors import PlatformError
from repro.faults.schedule import EMPTY_SCHEDULE, FaultSchedule
from repro.platforms.kernels import forward_edge_arrays
from repro.platforms.profile import PlatformProfile

__all__ = [
    "EngineMode",
    "EngineOptions",
    "parse_engine_options",
    "adjacency_shipping_bytes",
    "subgraph_buffer_bytes",
]

#: The dataset catalog scales vertex counts by 2000 but mean degrees only
#: by DEFAULT_DEGREE_DIVISOR (6), so quadratic-in-degree message buffers
#: (TC/KC adjacency shipping) shrink by ~36x more than memory does.  The
#: memory model multiplies subgraph working sets back up by roughly
#: degree_divisor**2 (36, nudged to 40 to cover envelope under-counting)
#: so the paper's OOM pattern reproduces at reduced scale:
#: GraphX/PowerGraph/Pregel+ cannot start the S9 TC sweep on one machine,
#: while Flash/Grape/G-thinker can (Table 11's TC rows).
SUBGRAPH_MEMORY_COMPENSATION = 40.0


class EngineMode(enum.Enum):
    """Execution-path selector for engines with scalar and bulk paths.

    Only the vertex-centric (GraphX, Flash, Pregel+, Ligra) and
    edge-centric (PowerGraph) engines still have both.  ``AUTO`` lets
    the engine pick (currently the vectorized bulk path where one
    exists); ``BULK`` and ``SCALAR`` force a path, which the parity
    suites use to assert both meter identically.  The block- and
    subgraph-centric engines have one path; they accept the knob and
    ignore it.
    """

    AUTO = "auto"
    BULK = "bulk"
    SCALAR = "scalar"


@dataclass(frozen=True)
class EngineOptions:
    """Normalized engine knobs shared by every platform's ``run()``.

    Attributes
    ----------
    mode:
        Scalar/bulk path selection (:class:`EngineMode`).
    fault_schedule:
        The run's :class:`~repro.faults.FaultSchedule`; defaults to the
        empty schedule, under which execution, metering, and pricing are
        bit-identical to a run with no fault machinery at all.
    checkpoint_interval:
        Supersteps between checkpoint images when the schedule is
        non-empty (ignored otherwise).
    """

    mode: EngineMode = EngineMode.AUTO
    fault_schedule: FaultSchedule = EMPTY_SCHEDULE
    checkpoint_interval: int = 8


def parse_engine_options(params: dict) -> EngineOptions:
    """Pop and validate the shared engine knobs out of ``params``.

    Mutates ``params`` (the platform's remaining keyword arguments) by
    removing ``engine_mode``, ``fault_schedule``, and
    ``checkpoint_interval``; everything else is left for the algorithm
    implementations.  Raises :class:`~repro.errors.PlatformError` for an
    unknown mode, a schedule of the wrong type, or a non-positive
    checkpoint interval.
    """
    raw_mode = params.pop("engine_mode", EngineMode.AUTO)
    if isinstance(raw_mode, EngineMode):
        mode = raw_mode
    else:
        try:
            mode = EngineMode(raw_mode)
        except ValueError:
            valid = ", ".join(repr(m.value) for m in EngineMode)
            raise PlatformError(
                f"unknown engine_mode {raw_mode!r}; expected one of {valid}"
            ) from None
    schedule = params.pop("fault_schedule", None)
    if schedule is None:
        schedule = EMPTY_SCHEDULE
    elif not isinstance(schedule, FaultSchedule):
        raise PlatformError(
            f"fault_schedule must be a FaultSchedule, got "
            f"{type(schedule).__name__}"
        )
    interval = params.pop("checkpoint_interval", 8)
    if not isinstance(interval, int) or isinstance(interval, bool) or interval < 1:
        raise PlatformError(
            f"checkpoint_interval must be an int >= 1, got {interval!r}"
        )
    return EngineOptions(
        mode=mode,
        fault_schedule=schedule,
        checkpoint_interval=interval,
    )


def adjacency_shipping_bytes(
    graph: Graph, *, envelope_bytes: float
) -> tuple[float, float]:
    """(payload, envelope) bytes of a forward-adjacency broadcast.

    Triangle counting on message-passing models ships each vertex's
    forward list to each forward neighbour: payload is
    ``8 * sum(fdeg^2)``, envelopes one per forward edge.
    """
    fdeg = np.diff(forward_edge_arrays(graph)[0])
    return 8.0 * float((fdeg * fdeg).sum()), envelope_bytes * float(fdeg.sum())


def subgraph_buffer_bytes(
    profile: PlatformProfile, algorithm: str, graph: Graph
) -> float:
    """TC/KC message buffers on the vertex- and edge-centric platforms:
    the forward-adjacency broadcast per replica, doubled for KC, and a
    quarter of that where vertex subsets stream the frontier (Flash,
    Ligra); 0 for every other algorithm."""
    if algorithm not in ("tc", "kc"):
        return 0.0
    payload, envelope = adjacency_shipping_bytes(
        graph, envelope_bytes=profile.cost.bytes_per_message_overhead
    )
    total = (payload + envelope) * profile.replication_factor
    if algorithm == "kc":
        total *= 2.0  # expansion frontiers dominate one extra level
    if profile.vertex_subset:
        total *= 0.25
    return total * SUBGRAPH_MEMORY_COMPENSATION

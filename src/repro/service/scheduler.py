"""Tenant fairness and admission control for the benchmark service.

Two pieces, both synchronous and independently testable:

* :class:`WeightedRoundRobin` — the fairness policy.  Each tenant owns
  a FIFO queue and an integer weight (its submission ``priority``); a
  scheduling *round* grants every tenant ``weight`` credits, and
  :meth:`WeightedRoundRobin.pop` dispatches from the current tenant
  until its credits (or queue) run out before moving on.  A tenant with
  weight 3 therefore gets three dispatches for every one a weight-1
  tenant gets, but can never starve anyone: credits refresh only when a
  full cycle finds no dispatchable tenant.

* :func:`preflight_case` — the admission check.  Resolves a spec
  exactly as :func:`~repro.bench.runner.run_case` would
  (:func:`~repro.bench.runner.resolve_spec`: same red-bar promotion,
  same default cluster), builds the dataset through the shared catalog
  cache, and charges the working set via the platform's public
  :meth:`~repro.platforms.base.Platform.admission_bytes` — the same
  ``_admit()`` path ``Platform.run`` gates on.  The verdict is
  ``"ok"`` (with the admitted bytes) or a rejection, which the service
  tallies; a rejected case still runs through ``run_case``, which maps
  the same error to the same structured
  :class:`~repro.bench.runner.CaseOutcome` a direct call would return —
  admission never forks outcome identity.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator

from repro.bench.runner import CaseSpec, resolve_spec
from repro.errors import (
    OutOfMemoryError,
    PlatformError,
    ServiceError,
    UnsupportedAlgorithmError,
)

__all__ = ["WeightedRoundRobin", "AdmissionTicket", "preflight_case"]


@dataclass(frozen=True)
class AdmissionTicket:
    """What the admission preflight learned about one case.

    ``verdict`` is ``"ok"`` (admitted; ``bytes`` is the working set
    ``_admit`` charged) or the rejection class ``run_case`` would
    report: ``"unsupported"``, ``"oom"``, or ``"error"``.
    """

    verdict: str
    bytes: float = 0.0
    detail: str = ""

    @property
    def admitted(self) -> bool:
        """Whether the case passed the platform's admission check."""
        return self.verdict == "ok"


def preflight_case(spec: CaseSpec) -> AdmissionTicket:
    """Admission-check one case without executing it.

    Runs in an executor worker (dataset builds are not event-loop
    work); the dataset lands in the shared catalog/store caches, so the
    subsequent real execution pays nothing extra.  Edge weights do not
    change vertex/edge counts, so the ``weighted`` flag is irrelevant
    to the memory charge and skipped here.
    """
    platform, cluster, _, _ = resolve_spec(spec)
    from repro.datagen.catalog import build_dataset

    try:
        kwargs = (
            {} if spec.scale_divisor is None
            else {"scale_divisor": spec.scale_divisor}
        )
        graph = build_dataset(spec.dataset, **kwargs).graph
        admitted = platform.admission_bytes(
            spec.algorithm, graph, cluster, **dict(spec.params)
        )
    except UnsupportedAlgorithmError as exc:
        return AdmissionTicket("unsupported", 0.0, str(exc))
    except OutOfMemoryError as exc:
        return AdmissionTicket("oom", 0.0, str(exc))
    except PlatformError as exc:
        return AdmissionTicket("error", 0.0, str(exc))
    return AdmissionTicket("ok", float(admitted))


class _TenantQueue:
    """One tenant's FIFO of pending work items plus its WRR weight."""

    __slots__ = ("weight", "items")

    def __init__(self, weight: int) -> None:
        self.weight = weight
        self.items: deque = deque()


class WeightedRoundRobin:
    """Deterministic weighted round-robin over per-tenant FIFO queues.

    Tenants are visited in registration order.  Within a round each
    tenant may dispatch up to ``weight`` items; the scheduler stays on
    a tenant until its credits or queue empty, then advances.  Credits
    refresh when no tenant can dispatch, so relative service rates
    follow the weights while every backlogged tenant progresses each
    round.

    Not thread-safe by design: the service drives it from a single
    event loop.
    """

    def __init__(self) -> None:
        self._tenants: dict[str, _TenantQueue] = {}
        self._order: list[str] = []
        self._credits: dict[str, int] = {}
        self._cursor = 0

    def ensure_tenant(self, tenant: str, weight: int = 1) -> None:
        """Register ``tenant`` (or update its weight).

        A weight change applies from the next credit refresh — current
        in-round credits are deliberately left alone so a mid-round
        resubmission cannot grant itself extra dispatches.
        """
        if isinstance(weight, bool) or not isinstance(weight, int) \
                or weight < 1:
            raise ServiceError(
                f"tenant weight must be an integer >= 1, got {weight!r}"
            )
        queue = self._tenants.get(tenant)
        if queue is None:
            self._tenants[tenant] = _TenantQueue(weight)
            self._order.append(tenant)
        else:
            queue.weight = weight

    def push(self, tenant: str, item: Any) -> None:
        """Enqueue one work item for ``tenant`` (FIFO within tenant)."""
        try:
            self._tenants[tenant].items.append(item)
        except KeyError:
            raise ServiceError(
                f"unknown tenant {tenant!r}; call ensure_tenant() first"
            ) from None

    def pop(self) -> tuple[str, Any] | None:
        """Dispatch the next ``(tenant, item)`` pair, or ``None`` if idle.

        At most two passes over the tenant ring: one with the current
        credits, and — if that found nothing but work exists — one
        after a credit refresh (which the weights guarantee succeeds).
        """
        if not self._order:
            return None
        for _ in range(2):
            scanned = 0
            n = len(self._order)
            while scanned < n:
                name = self._order[self._cursor]
                queue = self._tenants[name]
                if queue.items and self._credits.get(name, 0) > 0:
                    self._credits[name] -= 1
                    return name, queue.items.popleft()
                self._cursor = (self._cursor + 1) % n
                scanned += 1
            if not any(q.items for q in self._tenants.values()):
                return None
            # Work exists but every backlogged tenant is out of
            # credits: start a new round.
            self._credits = {
                name: queue.weight
                for name, queue in self._tenants.items()
            }
        raise ServiceError("weighted round-robin failed to make progress")

    def depths(self) -> dict[str, int]:
        """Pending item count per tenant (insertion order)."""
        return {
            name: len(self._tenants[name].items) for name in self._order
        }

    def total_depth(self) -> int:
        """Total pending items across all tenants."""
        return sum(len(q.items) for q in self._tenants.values())

    def weights(self) -> dict[str, int]:
        """Current tenant weights (insertion order)."""
        return {
            name: self._tenants[name].weight for name in self._order
        }

    def drain(self) -> Iterator[tuple[str, Any]]:
        """Pop until empty (used by shutdown to fail pending work)."""
        while True:
            item = self.pop()
            if item is None:
                return
            yield item

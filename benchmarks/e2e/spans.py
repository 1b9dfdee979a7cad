"""In-memory spans for the traced run.

The benchmark measures from outside: spans wrap the *calls into* each
layer from the benchmark's own files, never code inside ``src/``, and
the product's own ``repro.obs`` tracer stays off.  A span records its
name, its layer (the module name the metrics tables use), start and end
on ``time.perf_counter``, the span that caused it, and a trace id shared
by all spans of one operation (case key, job id, or window).  Spans stay
in memory and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


#: Layer of spans that are the benchmark's own code, not the product's.
BENCHMARK_LAYER = "benchmark"


@dataclass
class Span:
    id: int
    parent: int | None
    trace: str
    name: str
    layer: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; not thread-safe (one tracer per thread of work)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def _add(self, name: str, layer: str, start: float, end: float,
             trace: str | None, parent: Span | None) -> Span:
        if parent is None and self._open:
            parent = self._open[-1]
        if trace is None:
            trace = parent.trace if parent else name
        span = Span(len(self.spans), parent.id if parent else None, trace,
                    name, layer, start, end)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, layer: str, trace: str | None = None):
        """Time the ``with`` body as a child of the innermost open span."""
        span = self._add(name, layer, time.perf_counter(), 0.0, trace, None)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def record(self, name: str, layer: str, start: float, end: float,
               trace: str | None = None, parent: Span | None = None) -> Span:
        """Add an interval timed elsewhere (another thread) as a child of
        ``parent``, or of the open span."""
        return self._add(name, layer, start, end, trace, parent)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return {s.id: s.duration - covered[s.id] for s in self.spans}

    def accounted_share(self, root: Span) -> float:
        """Share of ``root``'s duration that is self time of product
        layers below it; the rest is the benchmark's own glue."""
        selves = self.self_times()
        below = {root.id}
        product = 0.0
        for span in self.spans:  # parents always precede their children
            if span.parent in below:
                below.add(span.id)
                if span.layer != BENCHMARK_LAYER:
                    product += selves[span.id]
        return product / root.duration if root.duration else 0.0

    def write(self, path: Path) -> None:
        selves = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                row = asdict(span)
                row["duration"] = span.duration
                row["self"] = selves[span.id]
                fh.write(json.dumps(row) + "\n")

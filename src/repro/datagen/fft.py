"""FFT-DG — the Failure-Free Trial Data Generator (paper Section 4).

FFT-DG keeps LDBC-DG's first two stages (vertex properties, homophily
ordering) but replaces rejection sampling of individual edges with direct
inverse-CDF sampling of the *next existing edge*.

For source position ``i`` the probability that position ``j > i`` holds
the first edge is ``c/(c+(j-i-1)) - c/(c+(j-i))`` (Equation 1), whose tail
``Pr[gap > g] = c/(c+g)`` inverts in closed form: draw ``f`` uniform on
``(0, 1]`` and set ``gap = floor((1/f - 1) * c) + 1``.  After accepting an
edge at distance ``d`` from the source, the parameter is advanced to
``c' = c + d`` and the same formula yields the next edge — so every draw
except the final out-of-range one produces an edge (≈1.5 trials/edge
counting the terminator, versus >8 for LDBC-DG).

Two flexibility extensions (Section 4.2):

* **Density factor** ``alpha >= 1`` divides ``c`` inside the gap formula,
  concentrating probability mass onto nearby vertices and producing more
  edges before the walk overruns the vertex range.
* **Diameter groups** — vertices are organised into contiguous groups; a
  global path of adjacent edges guarantees connectivity, and FFT-DG edges
  never cross a group boundary.  Each group's internal diameter is ~6, so
  ``diameter ≈ group_number * (group_diameter + 1)``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.datagen.base import (
    GenerationResult,
    TrialCounter,
    generate_vertex_properties,
    homophily_order,
)
from repro.errors import GeneratorParameterError
from repro.obs import GEN_EDGES, GEN_TRIALS, get_tracer
from repro.platforms.kernels import ChunkedDrawBuffer

__all__ = ["FFTDGConfig", "FFTDG", "generate_fft", "groups_for_diameter"]

#: Average internal diameter of one FFT-DG group (paper Section 4.2.2).
GROUP_DIAMETER = 6


@dataclass(frozen=True)
class FFTDGConfig:
    """Parameters of one FFT-DG run.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``n``.
    alpha:
        Density factor (>= 1).  ``alpha = 10`` is the paper's *Std*
        setting; ``alpha = 1000`` produces the *Dense* datasets.
    c0:
        Initial value of the gap parameter ``c``.  The paper's default 0
        makes the adjacent edge ``(i, i+1)`` certain.
    group_count:
        Number of diameter-control groups (1 = no diameter adjustment).
    target_edges:
        Optional global cap; generation stops once this many edges exist.
    connect_path:
        Whether to add the global path of adjacent edges.  Required for
        connectivity when ``group_count > 1``; the paper always keeps it.
    use_homophily_order:
        Whether to run stages 1–2 (vertex properties + similarity
        ordering).  Edges are always emitted in *position* space — like
        the real LDBC datasets, whose vertex ids are renumbered by
        generation locality — so range/block partitions preserve the
        homophily locality.  Set ``relabel_to_original_ids`` to map the
        output back to the original property-space ids instead.
    relabel_to_original_ids:
        Emit edges against the stage-1 vertex ids rather than homophily
        positions (scrambles locality; off by default).
    seed:
        RNG seed; runs are fully deterministic.
    """

    num_vertices: int
    alpha: float = 10.0
    c0: float = 0.0
    group_count: int = 1
    target_edges: int | None = None
    connect_path: bool = True
    use_homophily_order: bool = True
    relabel_to_original_ids: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_vertices < 0:
            raise GeneratorParameterError(
                f"num_vertices must be non-negative, got {self.num_vertices}"
            )
        if self.alpha < 1.0:
            raise GeneratorParameterError(f"alpha must be >= 1, got {self.alpha}")
        if self.c0 < 0.0:
            raise GeneratorParameterError(f"c0 must be >= 0, got {self.c0}")
        if self.group_count < 1:
            raise GeneratorParameterError(
                f"group_count must be >= 1, got {self.group_count}"
            )
        if self.group_count > max(1, self.num_vertices):
            raise GeneratorParameterError(
                f"group_count {self.group_count} exceeds num_vertices"
            )
        if self.target_edges is not None and self.target_edges < 0:
            raise GeneratorParameterError("target_edges must be non-negative")

    @property
    def group_size(self) -> int:
        """Vertices per diameter group (last group may be smaller)."""
        return max(1, math.ceil(self.num_vertices / self.group_count))


def groups_for_diameter(target_diameter: int) -> int:
    """Group count needed for a target diameter (paper Section 4.2.2).

    ``group_number = target_diameter / (group_diameter + 1)`` with the
    empirical per-group diameter of ~6.
    """
    if target_diameter < 1:
        raise GeneratorParameterError(
            f"target_diameter must be >= 1, got {target_diameter}"
        )
    return max(1, round(target_diameter / (GROUP_DIAMETER + 1)))


class FFTDG:
    """Failure-Free Trial Data Generator (Algorithm 1 of the paper)."""

    def __init__(self, config: FFTDGConfig) -> None:
        self.config = config

    def generate(self) -> GenerationResult:
        """Run all three stages and return the generated graph."""
        cfg = self.config
        tracer = get_tracer()
        start = time.perf_counter()
        n = cfg.num_vertices

        with tracer.span("fftdg/generate", category="datagen",
                         n=n, alpha=cfg.alpha,
                         group_count=cfg.group_count, seed=cfg.seed):
            order = None
            if cfg.use_homophily_order:
                with tracer.span("vertex-properties", category="datagen"):
                    properties = generate_vertex_properties(n, seed=cfg.seed)
                with tracer.span("homophily-order", category="datagen"):
                    if cfg.relabel_to_original_ids:
                        order = homophily_order(properties)
                    else:
                        # stage 2 runs; ids = positions
                        homophily_order(properties)

            with tracer.span("sample-edges", category="datagen"):
                src, dst, counter = self._sample_edges()
            if tracer.enabled:
                tracer.add(GEN_EDGES, float(counter.edges))
                tracer.add(GEN_TRIALS, float(counter.trials))
            elapsed = time.perf_counter() - start

            src_arr = np.asarray(src, dtype=np.int64)
            dst_arr = np.asarray(dst, dtype=np.int64)
            if order is not None:
                src_arr = order[src_arr]
                dst_arr = order[dst_arr]

            from repro.core.graph import Graph

            graph = Graph.from_edges(
                src_arr, dst_arr, num_vertices=n, directed=False
            )
        return GenerationResult(
            graph=graph,
            counter=counter,
            elapsed_seconds=elapsed,
            parameters={
                "generator": "FFT-DG",
                "n": n,
                "alpha": cfg.alpha,
                "c0": cfg.c0,
                "group_count": cfg.group_count,
                "seed": cfg.seed,
            },
        )

    # ------------------------------------------------------------------

    #: sources sampled per vectorized round (one gap draw each)
    _CHUNK = 65536

    def _sample_edges(self) -> tuple[np.ndarray, np.ndarray, TrialCounter]:
        """Stage 3: failure-free edge sampling over homophily positions.

        Accumulates the chunks of :meth:`sample_edge_chunks` in memory.
        """
        counter = TrialCounter()
        src_chunks: list[np.ndarray] = []
        dst_chunks: list[np.ndarray] = []
        for src, dst in self.sample_edge_chunks(counter):
            src_chunks.append(src)
            dst_chunks.append(dst)
        if not src_chunks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, counter
        return np.concatenate(src_chunks), np.concatenate(dst_chunks), counter

    def sample_edge_chunks(self, counter: TrialCounter):
        """Yield sampled edges as ``(src, dst)`` int64 chunk pairs.

        Sources are processed in chunks; each vectorized round draws one
        gap per still-walking source, emits the in-range edges, and
        drops the sources whose walk overran their group (round-major
        rather than the naive source-major order, so every
        ``_DrawBuffer`` batch feeds ~64k gap computations at once).
        Trial/edge accounting accumulates into ``counter``.  Chunk
        boundaries are an implementation detail; the concatenation of
        the yielded chunks is the generated edge list.
        """
        cfg = self.config
        n = cfg.num_vertices
        if n < 2:
            return

        group_size = cfg.group_size
        target = cfg.target_edges if cfg.target_edges is not None else -1
        emitted = 0

        if cfg.connect_path:
            # Adjacent edges guarantee global connectivity (Fig. 3).
            path = np.arange(n - 1, dtype=np.int64)
            if 0 <= target <= n - 1:
                yield path[:target], path[:target] + 1
                return
            yield path, path + 1
            emitted = n - 1

        rng = np.random.default_rng(cfg.seed + 1)
        draws = _DrawBuffer(rng)
        alpha = cfg.alpha
        c0 = cfg.c0
        done = False

        for lo in range(0, n - 1, self._CHUNK):
            if done:
                break
            sources = np.arange(
                lo, min(n - 1, lo + self._CHUNK), dtype=np.int64
            )
            if cfg.group_count == 1:
                group_end = np.full(sources.size, n, dtype=np.int64)
            else:
                group_end = np.minimum(
                    n, (sources // group_size + 1) * group_size
                )
            pos = sources.copy()
            c = np.full(sources.size, c0, dtype=np.float64)

            while sources.size:
                f = draws.take(sources.size)
                # Clip before the int conversion: a tiny f with a large
                # c can exceed the int64 range, and any such gap
                # overruns the group anyway.
                gap_f = np.minimum((1.0 / f - 1.0) * (c / alpha), 1e18)
                k = pos + gap_f.astype(np.int64) + 1
                ok = k < group_end
                hits = int(ok.sum())
                # One trial per draw; overruns are the terminators — the
                # only "failures" FFT-DG makes.
                counter.trials += int(sources.size)
                take = hits
                if target >= 0 and emitted + hits >= target:
                    take = target - emitted
                    done = True
                counter.edges += take
                if take:
                    yield sources[ok][:take], k[ok][:take]
                    emitted += take
                if done:
                    break
                sources = sources[ok]
                pos = k[ok]
                group_end = group_end[ok]
                c = c0 + (pos - sources)


# The chunked-draw machinery lives with the other shared array kernels;
# the alias keeps this module's internal name stable.
_DrawBuffer = ChunkedDrawBuffer


def calibrate_alpha(
    num_vertices: int,
    target_mean_degree: float,
    *,
    group_count: int = 1,
    seed: int = 0,
    tolerance: float = 0.05,
    max_alpha: float = 1e6,
) -> float:
    """Find the density factor that yields a target mean degree.

    The paper quotes alpha values (10, 1000) calibrated at full scale
    (millions of vertices); because alpha's effect depends on the absolute
    vertex count, a down-scaled reproduction must re-calibrate.  Mean
    degree is monotonically increasing in alpha, so a bisection on
    ``log(alpha)`` over trial generations converges quickly.

    Returns the smallest alpha whose generated mean degree is within
    ``tolerance`` (relative) of the target, or the boundary value if the
    target is unreachable (e.g. below the alpha=1 floor).
    """
    if target_mean_degree <= 0:
        raise GeneratorParameterError("target_mean_degree must be positive")

    def _mean_degree(alpha: float) -> float:
        config = FFTDGConfig(
            num_vertices=num_vertices,
            alpha=alpha,
            group_count=group_count,
            use_homophily_order=False,
            seed=seed,
        )
        edges = FFTDG(config).generate().graph.num_edges
        return 2.0 * edges / max(1, num_vertices)

    lo, hi = 1.0, 4.0
    if _mean_degree(lo) >= target_mean_degree:
        return lo
    while _mean_degree(hi) < target_mean_degree:
        hi *= 4.0
        if hi > max_alpha:
            return max_alpha
    for _ in range(24):
        mid = math.sqrt(lo * hi)
        degree = _mean_degree(mid)
        if abs(degree - target_mean_degree) <= tolerance * target_mean_degree:
            return mid
        if degree < target_mean_degree:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def generate_fft(
    num_vertices: int,
    *,
    alpha: float = 10.0,
    group_count: int = 1,
    target_edges: int | None = None,
    seed: int = 0,
    **kwargs,
) -> GenerationResult:
    """One-call convenience wrapper around :class:`FFTDG`."""
    config = FFTDGConfig(
        num_vertices=num_vertices,
        alpha=alpha,
        group_count=group_count,
        target_edges=target_edges,
        seed=seed,
        **kwargs,
    )
    return FFTDG(config).generate()

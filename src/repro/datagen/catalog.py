"""The benchmark's default synthetic dataset catalog (paper Table 4).

Eight datasets spanning four scales (S8, S9, S9.5, S10) and three variants
(*Std* — standard social network, alpha=10; *Dense* — alpha=1000 with a
third of the vertices; *Diam* — diameter ~100 via diameter groups).

The paper's datasets range from 153 M to 12.6 B edges; this reproduction
generates the same catalog scaled down by ``scale_divisor`` (default
2000×) so everything runs on one machine.  All generator code paths
(alpha, groups, homophily ordering) are identical to full scale — only
``n`` changes.  The paper's published statistics are kept alongside each
entry for the EXPERIMENTS.md paper-vs-measured comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Protocol

from repro.datagen.fft import (
    FFTDG,
    FFTDGConfig,
    calibrate_alpha,
    groups_for_diameter,
)
from repro.datagen.base import GenerationResult
from repro.errors import GeneratorParameterError
from repro.obs import DATASET_CACHE_HITS, DATASET_CACHE_MISSES, get_tracer

__all__ = [
    "DatasetSpec",
    "DatasetInstance",
    "DATASETS",
    "dataset_names",
    "build_dataset",
    "clear_dataset_cache",
    "dataset_cache_info",
    "set_dataset_cache_size",
    "set_dataset_persistence",
    "DatasetPersistence",
]

#: Default down-scaling factor from the paper's vertex counts.
DEFAULT_SCALE_DIVISOR = 2000

#: Default in-process dataset ``lru_cache`` size (resized at runtime via
#: :func:`set_dataset_cache_size` or ``repro-bench --dataset-cache-size``).
DEFAULT_CACHE_SIZE = 32

#: Default down-scaling factor for mean degree.  The paper's datasets have
#: mean degrees of 85–265, which at reproduction scale would make the
#: subgraph algorithms (KC) intractable in pure Python; dividing all
#: datasets' degrees by the same factor preserves the density *ratios*
#: (Dense ≈ 9× Std) the experiments depend on.
DEFAULT_DEGREE_DIVISOR = 6


@dataclass(frozen=True)
class DatasetSpec:
    """One Table-4 catalog row.

    ``paper_*`` fields hold the published full-scale statistics; the
    generator parameters (``alpha``, ``target_diameter``) are the paper's.
    """

    name: str
    scale: str                 # "8", "9", "9.5", "10"
    variant: str               # "Std", "Dense", "Diam"
    paper_vertices: int
    paper_edges: int
    paper_density: float
    paper_diameter: int
    alpha: float
    target_diameter: int | None = None  # None = no diameter adjustment

    def scaled_vertices(self, scale_divisor: int) -> int:
        """Vertex count after down-scaling (minimum 64)."""
        return max(64, self.paper_vertices // scale_divisor)

    @property
    def paper_mean_degree(self) -> float:
        """Published mean degree ``2m / n`` — preserved across scaling."""
        return 2.0 * self.paper_edges / self.paper_vertices


@dataclass(frozen=True)
class DatasetInstance:
    """A generated catalog dataset: the graph plus its provenance."""

    spec: DatasetSpec
    result: GenerationResult
    scale_divisor: int
    seed: int

    @property
    def graph(self):
        """The generated :class:`~repro.core.graph.Graph`."""
        return self.result.graph


DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (
        DatasetSpec("S8-Std", "8", "Std", 3_600_000, 153_000_000,
                    2.4e-5, 6, alpha=10.0),
        DatasetSpec("S8-Dense", "8", "Dense", 1_200_000, 159_000_000,
                    2.2e-4, 5, alpha=1000.0),
        DatasetSpec("S8-Diam", "8", "Diam", 3_600_000, 155_000_000,
                    2.4e-5, 101, alpha=10.0, target_diameter=101),
        DatasetSpec("S9-Std", "9", "Std", 27_200_000, 1_420_000_000,
                    3.8e-6, 6, alpha=10.0),
        DatasetSpec("S9-Dense", "9", "Dense", 9_100_000, 1_470_000_000,
                    3.6e-5, 5, alpha=1000.0),
        DatasetSpec("S9-Diam", "9", "Diam", 27_200_000, 1_480_000_000,
                    4.0e-6, 102, alpha=10.0, target_diameter=102),
        DatasetSpec("S9.5-Std", "9.5", "Std", 77_000_000, 4_360_000_000,
                    1.5e-6, 6, alpha=10.0),
        DatasetSpec("S10-Std", "10", "Std", 210_000_000, 12_620_000_000,
                    5.7e-7, 6, alpha=10.0),
    )
}


def dataset_names() -> list[str]:
    """Catalog dataset names in Table-4 order."""
    return list(DATASETS)


class DatasetPersistence(Protocol):
    """What the catalog needs from a persistent dataset layer.

    The bench harness's content-addressed store
    (:class:`repro.bench.store.ArtifactStore`) implements this; the
    catalog itself stays storage-agnostic — ``datagen`` must not import
    ``bench``.
    """

    def load_dataset(self, payload: tuple) -> DatasetInstance | None:
        """Return the stored instance for ``payload``, or ``None``."""

    def store_dataset(self, payload: tuple, instance: DatasetInstance) -> None:
        """Persist ``instance`` under ``payload``."""


#: The pluggable persistent layer consulted under the ``lru_cache``
#: (None = generate on every in-process miss, the historical behavior).
_PERSISTENCE: DatasetPersistence | None = None


def set_dataset_persistence(
    layer: DatasetPersistence | None,
) -> DatasetPersistence | None:
    """Install (or remove, with ``None``) the persistent dataset layer.

    Returns the previous layer.  The in-process cache is left intact:
    already-memoized instances keep being served from memory.
    """
    global _PERSISTENCE
    previous = _PERSISTENCE
    _PERSISTENCE = layer
    return previous


def build_dataset(
    name: str,
    *,
    scale_divisor: int = DEFAULT_SCALE_DIVISOR,
    degree_divisor: int = DEFAULT_DEGREE_DIVISOR,
    seed: int = 7,
) -> DatasetInstance:
    """Generate (or fetch from cache) one catalog dataset.

    Results are memoized per ``(name, scale_divisor, degree_divisor,
    seed)`` because the benchmark suite reuses the same datasets across
    many experiments.  Two cache layers are consulted in order: the
    in-process ``lru_cache`` (size via :func:`set_dataset_cache_size`),
    then the pluggable persistent layer
    (:func:`set_dataset_persistence`), so pool workers and repeated
    invocations share generated datasets instead of rebuilding.  When
    tracing is enabled, in-process hits and misses surface as the
    ``dataset_cache_hits`` / ``dataset_cache_misses`` counters.
    """
    if name not in DATASETS:
        raise GeneratorParameterError(
            f"unknown dataset {name!r}; choose from {dataset_names()}"
        )
    if scale_divisor < 1:
        raise GeneratorParameterError(
            f"scale_divisor must be >= 1, got {scale_divisor}"
        )
    if degree_divisor < 1:
        raise GeneratorParameterError(
            f"degree_divisor must be >= 1, got {degree_divisor}"
        )
    tracer = get_tracer()
    if not tracer.enabled:
        return _build_cached(name, scale_divisor, degree_divisor, seed)
    hits_before = _build_cached.cache_info().hits
    instance = _build_cached(name, scale_divisor, degree_divisor, seed)
    if _build_cached.cache_info().hits > hits_before:
        tracer.add(DATASET_CACHE_HITS, 1.0)
    else:
        tracer.add(DATASET_CACHE_MISSES, 1.0)
    return instance


def _build(
    name: str, scale_divisor: int, degree_divisor: int, seed: int
) -> DatasetInstance:
    """Build one dataset, consulting the persistent layer first."""
    payload = (name, scale_divisor, degree_divisor, seed)
    if _PERSISTENCE is not None:
        stored = _PERSISTENCE.load_dataset(payload)
        if stored is not None:
            return stored
    instance = _generate(name, scale_divisor, degree_divisor, seed)
    if _PERSISTENCE is not None:
        _PERSISTENCE.store_dataset(payload, instance)
    return instance


def _generate(
    name: str, scale_divisor: int, degree_divisor: int, seed: int
) -> DatasetInstance:
    spec = DATASETS[name]
    n = spec.scaled_vertices(scale_divisor)
    group_count = 1
    if spec.target_diameter is not None:
        group_count = min(groups_for_diameter(spec.target_diameter), max(1, n // 8))
    # Alpha's effect depends on absolute scale, so re-calibrate it to
    # preserve the paper's (degree-scaled) mean degree at the reduced
    # vertex count.
    target_degree = max(4.0, spec.paper_mean_degree / degree_divisor)
    alpha = calibrate_alpha(n, target_degree, group_count=group_count, seed=seed)
    config = FFTDGConfig(
        num_vertices=n,
        alpha=alpha,
        group_count=group_count,
        seed=seed,
    )
    result = FFTDG(config).generate()
    return DatasetInstance(
        spec=spec, result=result, scale_divisor=scale_divisor, seed=seed
    )


def _make_cache(maxsize: int):
    return lru_cache(maxsize=maxsize)(_build)


_build_cached = _make_cache(DEFAULT_CACHE_SIZE)


def set_dataset_cache_size(maxsize: int) -> None:
    """Resize the in-process dataset cache (drops current entries).

    The persistent layer, if any, is unaffected — re-misses refill from
    disk rather than regenerating.
    """
    if maxsize < 1:
        raise GeneratorParameterError(
            f"dataset cache size must be >= 1, got {maxsize}"
        )
    global _build_cached
    _build_cached = _make_cache(maxsize)


def dataset_cache_info():
    """``functools.lru_cache`` statistics of the in-process cache."""
    return _build_cached.cache_info()


def clear_dataset_cache() -> None:
    """Drop all memoized datasets (tests use this for isolation)."""
    _build_cached.cache_clear()

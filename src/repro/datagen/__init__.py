"""Synthetic data generators.

The paper's contribution is :mod:`repro.datagen.fft` (FFT-DG); the
baseline it improves on is :mod:`repro.datagen.ldbc` (LDBC-DG).  The
classic generators, the Graph500 Kronecker generator, and the LiveJournal
surrogate support the related-work comparisons and the similarity study.
"""

from repro.datagen.base import (
    GenerationResult,
    TrialCounter,
    VertexProperties,
    generate_vertex_properties,
    homophily_order,
)
from repro.datagen.fft import (
    FFTDG,
    FFTDGConfig,
    GROUP_DIAMETER,
    generate_fft,
    groups_for_diameter,
)
from repro.datagen.ldbc import (
    LDBCDG,
    LDBCDGConfig,
    generate_ldbc,
    ldbc_params_for_mean_degree,
)
from repro.datagen.classic import (
    barabasi_albert,
    erdos_renyi_gnm,
    erdos_renyi_gnp,
    watts_strogatz,
)
from repro.datagen.kronecker import KroneckerConfig, kronecker
from repro.datagen.surrogate import livejournal_surrogate
from repro.datagen.weights import exponential_weights, uniform_weights, unit_weights
from repro.datagen.dynamic import (
    DynamicGraphStream,
    EdgeBatch,
    generate_stream,
)
from repro.datagen.catalog import (
    DATASETS,
    DEFAULT_SCALE_DIVISOR,
    DatasetInstance,
    DatasetSpec,
    build_dataset,
    clear_dataset_cache,
    dataset_cache_info,
    dataset_names,
    set_dataset_cache_size,
    set_dataset_persistence,
)

__all__ = [
    "GenerationResult",
    "TrialCounter",
    "VertexProperties",
    "generate_vertex_properties",
    "homophily_order",
    "FFTDG",
    "FFTDGConfig",
    "GROUP_DIAMETER",
    "generate_fft",
    "groups_for_diameter",
    "LDBCDG",
    "LDBCDGConfig",
    "generate_ldbc",
    "ldbc_params_for_mean_degree",
    "erdos_renyi_gnp",
    "erdos_renyi_gnm",
    "watts_strogatz",
    "barabasi_albert",
    "KroneckerConfig",
    "kronecker",
    "livejournal_surrogate",
    "DynamicGraphStream",
    "EdgeBatch",
    "generate_stream",
    "uniform_weights",
    "exponential_weights",
    "unit_weights",
    "DATASETS",
    "DEFAULT_SCALE_DIVISOR",
    "DatasetSpec",
    "DatasetInstance",
    "build_dataset",
    "clear_dataset_cache",
    "dataset_cache_info",
    "dataset_names",
    "set_dataset_cache_size",
    "set_dataset_persistence",
]

"""Core-satellite graphs: generators, metrics, spectra, verification.

A core-satellite graph joins a core clique to disjoint satellite
cliques, in one or several classes of clique size.  This package
generates the family, evaluates clustering, transitivity, assortativity
and subgraph counts both directly and from closed forms, assembles
adjacency and Laplacian spectra analytically, and cross-validates every
closed form against brute-force numeric oracles.
"""
from .exceptions import InvalidParameterError, NumericFailureError, SizeLimitError
from .graphs import (
    Graph,
    agave,
    complete_graph,
    complete_split,
    disjoint_union,
    empty_graph,
    friendship,
    generalized_core_satellite,
    is_connected,
    join,
    star,
    windmill,
)
from .io import format_dot, format_edgelist, format_graph, format_matrix_market
from .metrics import MetricsReport, analytic_metrics, compute_metrics
from .oracle import (
    DEFAULT_DENSE_LIMIT,
    DEFAULT_ENUM_LIMIT,
    SubgraphCounts,
    adjacency_matrix,
    eigenvalues_symmetric,
    exhaustive_subgraph_counts,
    laplacian_matrix,
    local_clustering,
)
from .params import GeneralizedParams, SatelliteClass
from .spectra import (
    PrincipalEigenvector,
    SpectraReport,
    SpectralIndices,
    SpectrumResult,
    adjacency_spectrum_gcs,
    analytic_spectra,
    analytic_spectra_batch,
    laplacian_spectrum_gcs,
    max_spectrum_deviation,
    principal_eigenvector,
    quotient,
    spectral_indices,
    spectral_radius,
    spectral_radius_bounds,
)
from .verification import CheckResult, run_checks, sample_generalized_params

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "DEFAULT_DENSE_LIMIT",
    "DEFAULT_ENUM_LIMIT",
    "GeneralizedParams",
    "Graph",
    "InvalidParameterError",
    "MetricsReport",
    "NumericFailureError",
    "PrincipalEigenvector",
    "SatelliteClass",
    "SizeLimitError",
    "SpectraReport",
    "SpectralIndices",
    "SpectrumResult",
    "SubgraphCounts",
    "adjacency_matrix",
    "adjacency_spectrum_gcs",
    "agave",
    "analytic_metrics",
    "analytic_spectra",
    "analytic_spectra_batch",
    "complete_graph",
    "complete_split",
    "compute_metrics",
    "disjoint_union",
    "eigenvalues_symmetric",
    "empty_graph",
    "exhaustive_subgraph_counts",
    "format_dot",
    "format_edgelist",
    "format_graph",
    "format_matrix_market",
    "friendship",
    "generalized_core_satellite",
    "is_connected",
    "join",
    "laplacian_matrix",
    "laplacian_spectrum_gcs",
    "local_clustering",
    "max_spectrum_deviation",
    "principal_eigenvector",
    "quotient",
    "run_checks",
    "sample_generalized_params",
    "spectral_indices",
    "spectral_radius",
    "spectral_radius_bounds",
    "star",
    "windmill",
]

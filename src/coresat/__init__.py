"""Core-satellite graphs: generators, metrics, spectra, verification.

A core-satellite graph joins a core clique to disjoint satellite
cliques, in one or several classes of clique size.  This package
generates the family, evaluates clustering, transitivity, assortativity
and subgraph counts both directly and from closed forms, assembles
adjacency and Laplacian spectra analytically, and cross-validates every
closed form against brute-force numeric oracles.
"""
import importlib

from .exceptions import (
    DEFAULT_DENSE_LIMIT,
    InvalidParameterError,
    NumericFailureError,
    SizeLimitError,
)
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
from .params import GeneralizedParams, SatelliteClass

# the modules that import numpy, and the names taken from each; they load
# on first use (PEP 562), so `import coresat` and the graph, metrics and
# io names stay free of numpy
_NUMERIC = {
    "oracle": (
        "DEFAULT_ENUM_LIMIT",
        "SubgraphCounts",
        "adjacency_matrix",
        "eigenvalues_symmetric",
        "exhaustive_subgraph_counts",
        "laplacian_matrix",
        "local_clustering",
    ),
    "spectra": (
        "PrincipalEigenvector",
        "SpectralIndices",
        "SpectrumResult",
        "adjacency_spectrum_gcs",
        "divisor_matrix",
        "laplacian_spectrum_gcs",
        "max_spectrum_deviation",
        "principal_eigenvector",
        "spectral_indices",
        "spectral_radius",
        "spectral_radius_bounds",
    ),
    "verification": ("CheckResult", "run_checks", "sample_generalized_params"),
}
_HOME = {name: module for module, names in _NUMERIC.items() for name in names}


def __getattr__(name: str):
    if name in _NUMERIC:
        return importlib.import_module(f".{name}", __name__)
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # the module imported with this package, if it was, else imported now
    return getattr(globals().get(module) or __getattr__(module), name)


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
    "SpectralIndices",
    "SpectrumResult",
    "SubgraphCounts",
    "adjacency_matrix",
    "adjacency_spectrum_gcs",
    "agave",
    "analytic_metrics",
    "complete_graph",
    "complete_split",
    "compute_metrics",
    "disjoint_union",
    "divisor_matrix",
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
    "run_checks",
    "sample_generalized_params",
    "spectral_indices",
    "spectral_radius",
    "spectral_radius_bounds",
    "star",
    "windmill",
]

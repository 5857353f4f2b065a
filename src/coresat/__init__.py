"""Core-satellite graphs: generators, metrics, spectra, verification.

A core-satellite graph joins a core clique to disjoint satellite
cliques, in one or several classes of clique size.  This package
generates the family, evaluates clustering, transitivity, assortativity
and subgraph counts both directly and from closed forms, assembles
adjacency and Laplacian spectra analytically, and cross-validates every
closed form against brute-force numeric oracles.

The package exports one path per result: ``GeneralizedParams`` and its
named instances, ``compute_metrics`` and ``analytic_metrics`` for the
metrics, ``analytic_spectra`` for every closed-form spectral result,
``format_graph`` for output and ``run_checks`` for the verification
battery.  The graph operations, the dense oracles and the parts of a
``SpectraReport`` stay importable from their own modules
(``coresat.graphs``, ``.oracle``, ``.spectra``, ``.io``,
``.verification``).
"""
from .exceptions import InvalidParameterError, NumericFailureError, SizeLimitError
from .graphs import (
    Graph,
    agave,
    complete_split,
    friendship,
    generalized_core_satellite,
    star,
    windmill,
)
from .io import format_graph
from .metrics import MetricsReport, analytic_metrics, compute_metrics
from .params import GeneralizedParams, SatelliteClass
from .spectra import SpectraReport, analytic_spectra, spectral_radius_bounds
from .verification import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "GeneralizedParams",
    "Graph",
    "InvalidParameterError",
    "MetricsReport",
    "NumericFailureError",
    "SatelliteClass",
    "SizeLimitError",
    "SpectraReport",
    "agave",
    "analytic_metrics",
    "analytic_spectra",
    "complete_split",
    "compute_metrics",
    "format_graph",
    "friendship",
    "generalized_core_satellite",
    "run_checks",
    "spectral_radius_bounds",
    "star",
    "windmill",
]

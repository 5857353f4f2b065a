"""Closed-form adjacency and Laplacian spectra of core-satellite graphs.

The partition {core, class 1, ..., class t} is equitable, so the
adjacency spectrum has three pieces: -1 from contrasts inside the core
and inside each satellite clique, s_i-1 from contrasts across the
copies of class i, and the t+1 eigenvalues of the (t+1)x(t+1) quotient
over the partition.  A single class is the 2x2 case, with roots
((c+s-2) +- sqrt((c-s)**2 + 4*eta*c*s)) / 2.  The quotient is evaluated
as a symmetric matrix eigenproblem, never by expanding polynomial
coefficients, and a root within 1e-10 of an integer is snapped to it:
one satellite collapses the family to a complete graph, whose roots
n-1 and -1 come out exact.

Laplacian spectra are integer-valued throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidParameterError
from .oracle import eigenvalues_symmetric
from .params import GeneralizedParams

__all__ = [
    "SpectrumResult",
    "PrincipalEigenvector",
    "SpectralIndices",
    "adjacency_spectrum_gcs",
    "divisor_matrix",
    "spectral_radius",
    "spectral_radius_bounds",
    "principal_eigenvector",
    "laplacian_spectrum_gcs",
    "spectral_indices",
    "max_spectrum_deviation",
]

_INT_SNAP = 1e-10


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues of one matrix, as (value, multiplicity) pairs.

    Pairs are sorted by descending value and multiplicities sum to n.
    ``source`` is "analytic" or "numeric"; ``matrix`` is "adjacency" or
    "laplacian".  ``degenerate`` marks the complete-graph collapse at a
    single satellite.  ``notes`` optionally describes eigenvector
    structure in words; repeated eigenvalues have no canonical basis, so
    no numeric eigenvectors are reported for them.
    """

    eigenpairs: tuple[tuple[float, int], ...]
    source: str
    matrix: str
    degenerate: bool = False
    notes: tuple[str, ...] = ()

    @property
    def size(self) -> int:
        return sum(mult for _, mult in self.eigenpairs)

    def expanded(self) -> list[float]:
        """All eigenvalues with multiplicity, descending."""
        out: list[float] = []
        for value, mult in self.eigenpairs:
            out.extend([value] * mult)
        return out


@dataclass(frozen=True)
class PrincipalEigenvector:
    """Structure of the eigenvector at the spectral radius.

    Core entries are normalized to 1; all nodes of a satellite class
    share one entry.  ``class_values[i]`` pairs with ``params.classes[i]``.
    """

    eigenvalue: float
    core_value: float
    class_values: tuple[float, ...]

    def to_vector(self, params: GeneralizedParams) -> list[float]:
        vec = [self.core_value] * params.core
        for cls, beta in zip(params.classes, self.class_values):
            vec.extend([beta] * (cls.size * cls.count))
        return vec


@dataclass(frozen=True)
class SpectralIndices:
    """Derived spectral quantities of one parameter set."""

    spectral_radius: float
    infection_threshold: float
    sync_index: float
    algebraic_connectivity: float


def _merge_pairs(pairs: list[tuple[float, int]]) -> tuple[tuple[float, int], ...]:
    """Drop zero multiplicities, merge equal values, sort descending."""
    merged: dict[float, int] = {}
    for value, mult in pairs:
        if mult > 0:
            merged[value] = merged.get(value, 0) + mult
    return tuple(sorted(merged.items(), key=lambda p: -p[0]))


def _snap_integers(values: np.ndarray) -> list[float]:
    out = []
    for v in values:
        r = round(float(v))
        out.append(float(r) if abs(v - r) <= _INT_SNAP else float(v))
    return out


def divisor_matrix(params: GeneralizedParams) -> np.ndarray:
    """Symmetrized quotient matrix over {core, class 1, ..., class t}.

    The raw quotient B (B[0][0]=c-1, B[0][i]=eta_i*s_i, B[i][0]=c,
    B[i][i]=s_i-1) is conjugated by diag(sqrt(c), sqrt(eta_i*s_i)) into
    a symmetric matrix with the same eigenvalues, so a symmetric solver
    applies.
    """
    c = params.core
    t = params.class_count
    b = np.zeros((t + 1, t + 1))
    b[0, 0] = c - 1
    for i, cls in enumerate(params.classes, start=1):
        b[i, i] = cls.size - 1
        coupling = math.sqrt(c * cls.count * cls.size)
        b[0, i] = coupling
        b[i, 0] = coupling
    return b


def _quotient_roots(params: GeneralizedParams) -> list[float]:
    """The t+1 quotient eigenvalues, descending, snapped to integers."""
    return _snap_integers(eigenvalues_symmetric(divisor_matrix(params)))


def adjacency_spectrum_gcs(params: GeneralizedParams) -> SpectrumResult:
    """Adjacency spectrum of the generalized family.

    Structural eigenvalues are exact integers; the t+1 remaining simple
    eigenvalues come from the symmetrized quotient.  A single satellite
    gives a complete graph, flagged degenerate.
    """
    c = params.core
    minus_one_mult = c + sum(cls.count * (cls.size - 1) for cls in params.classes) - 1
    pairs: list[tuple[float, int]] = [(-1.0, minus_one_mult)]
    for cls in params.classes:
        pairs.append((float(cls.size - 1), cls.count - 1))
    pairs.extend((root, 1) for root in _quotient_roots(params))
    notes = (
        "quotient eigenvalues: constant on the core and on each satellite class",
        "value s_i-1: contrasts across copies inside class i, zero elsewhere",
        "value -1: contrasts inside the core clique and inside satellite cliques",
    )
    return SpectrumResult(
        eigenpairs=_merge_pairs(pairs),
        source="analytic",
        matrix="adjacency",
        degenerate=params.satellite_total == 1,
        notes=notes,
    )


# not in __all__: benchmarks/tracing.py still wraps this name
adjacency_spectrum_cs = adjacency_spectrum_gcs


def spectral_radius(params: GeneralizedParams) -> float:
    """Largest adjacency eigenvalue: the top quotient root."""
    return _quotient_roots(params)[0]


def spectral_radius_bounds(params: GeneralizedParams) -> tuple[int, int]:
    """Strict enclosure (c - 1 + max size, n - 1) of the spectral radius.

    Defined for at least two satellites in total; with one satellite the
    graph is complete and both ends collapse onto the radius itself.
    """
    if params.satellite_total < 2:
        raise InvalidParameterError("bounds require at least two satellites in total")
    lower = params.core - 1 + max(cls.size for cls in params.classes)
    return lower, params.n - 1


def principal_eigenvector(params: GeneralizedParams) -> PrincipalEigenvector:
    """Eigenvector at the spectral radius, core entries normalized to 1.

    Every node of class i carries beta_i = c / (rho - s_i + 1); with at
    least two satellites each beta_i lies strictly in (0, 1).
    """
    rho = spectral_radius(params)
    c = params.core
    betas = tuple(c / (rho - cls.size + 1) for cls in params.classes)
    return PrincipalEigenvector(eigenvalue=rho, core_value=1.0, class_values=betas)


def laplacian_spectrum_gcs(params: GeneralizedParams) -> SpectrumResult:
    """Laplacian spectrum of the generalized family; integer-valued.

    n with multiplicity c; c + s_i with multiplicity eta_i*(s_i - 1);
    c with multiplicity eta - 1; 0 once.
    """
    c = params.core
    n = params.n
    pairs: list[tuple[float, int]] = [(float(n), c)]
    for cls in params.classes:
        pairs.append((float(c + cls.size), cls.count * (cls.size - 1)))
    pairs.append((float(c), params.satellite_total - 1))
    pairs.append((0.0, 1))
    notes = (
        "value n: contrasts between the core and everything else",
        "value c+s_i: contrasts inside satellite cliques of class i",
        "value c: contrasts across satellite copies",
        "value 0: the all-ones vector",
    )
    return SpectrumResult(
        eigenpairs=_merge_pairs(pairs),
        source="analytic",
        matrix="laplacian",
        degenerate=params.satellite_total == 1,
        notes=notes,
    )


def spectral_indices(params: GeneralizedParams) -> SpectralIndices:
    """Spectral radius, infection threshold 1/rho, sync index, connectivity.

    The sync index is the ratio of the smallest positive to the largest
    Laplacian eigenvalue, which is exactly c/n here; the algebraic
    connectivity is exactly c.
    """
    rho = spectral_radius(params)
    return SpectralIndices(
        spectral_radius=rho,
        infection_threshold=1.0 / rho,
        sync_index=params.core / params.n,
        algebraic_connectivity=float(params.core),
    )


def max_spectrum_deviation(result: SpectrumResult, numeric_descending) -> float:
    """Max absolute gap between an analytic spectrum and numeric values."""
    analytic = result.expanded()
    numeric = [float(v) for v in numeric_descending]
    if len(analytic) != len(numeric):
        raise ValueError(
            f"spectrum size mismatch: analytic {len(analytic)} vs numeric {len(numeric)}"
        )
    return max(
        (abs(a - b) for a, b in zip(analytic, numeric)),
        default=0.0,
    )

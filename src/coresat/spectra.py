"""Closed-form adjacency and Laplacian spectra of core-satellite graphs.

The partition {core, class 1, ..., class t} is equitable, so the
adjacency spectrum has three pieces: -1 from contrasts inside the core
and inside each satellite clique, s_i-1 from contrasts across the
copies of class i, and the t+1 eigenvalues of the (t+1)x(t+1) quotient
over the partition.  A single class is the 2x2 case, with roots
((c+s-2) +- sqrt((c-s)**2 + 4*eta*c*s)) / 2.  ``quotient`` builds its
divisor matrix B in integers, as ``graphs.twin_classes`` does from the
graph, and ``oracle.symmetric_quotient``, shared by both sides, makes it
a symmetric eigenproblem; no polynomial is expanded.  A root within
1e-10 of an integer is snapped to it: one satellite collapses the family
to a complete graph, whose roots n-1 and -1 come out exact.

Laplacian spectra are integer-valued throughout.

``analytic_spectra`` is the one closed-form path: it builds every
result of one parameter set, as one ``SpectraReport``, from
``adjacency_spectrum_gcs`` (one quotient solve) and
``laplacian_spectrum_gcs``.  The radius is the adjacency spectrum's top
value, and the eigenvector and the indices are derived from it.
``spectral_radius``, ``principal_eigenvector`` and ``spectral_indices``
are projections of that path; a caller that needs several fields asks
for the report once.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import sub

from .exceptions import InvalidParameterError
from .oracle import eigenvalues_symmetric, symmetric_quotient
from .params import GeneralizedParams

__all__ = [
    "SpectrumResult",
    "PrincipalEigenvector",
    "SpectralIndices",
    "SpectraReport",
    "adjacency_spectrum_gcs",
    "analytic_spectra",
    "quotient",
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
    """

    eigenpairs: tuple[tuple[float, int], ...]

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


@dataclass(frozen=True)
class SpectraReport:
    """The closed-form spectra of one parameter set, as ``analytic_spectra`` gives them."""

    adjacency: SpectrumResult
    laplacian: SpectrumResult
    eigenvector: PrincipalEigenvector
    indices: SpectralIndices


def _merge_pairs(pairs: list[tuple[float, int]]) -> tuple[tuple[float, int], ...]:
    """Drop zero multiplicities, merge equal values exactly, sort descending, round each once."""
    merged: dict[float, int] = {}
    for value, mult in pairs:
        if mult > 0:
            merged[value] = merged.get(value, 0) + mult
    ordered = sorted(merged.items(), key=lambda p: -p[0])
    return tuple((_in_float_range(float, value), mult) for value, mult in ordered)


def _in_float_range(fn, *args):
    """``fn(*args)``; ``InvalidParameterError`` where it passes the float range."""
    try:
        return fn(*args)
    except OverflowError:
        raise InvalidParameterError("parameters exceed the float range of the spectra") from None


def _snap_integers(values) -> tuple[float, ...]:
    out = []
    for v in map(float, values):
        r = round(v)
        out.append(float(r) if abs(v - r) <= _INT_SNAP else v)
    return tuple(out)


def quotient(params: GeneralizedParams) -> list[dict[int, int]]:
    """The paper's divisor matrix B over {core, class 1, ..., class t}, in integers.

    B00 = c - 1, B0i = eta_i * s_i, Bi0 = c and Bii = s_i - 1, one dict
    per row with no zero entry stored: with two satellites or more, what
    ``graphs.twin_classes`` reads from the graph.  One satellite keeps
    its two cells here, where the graph, a K_n, is a single clique run.
    """
    c = params.core
    rows = [{0: c - 1} if c > 1 else {}]
    for i, cls in enumerate(params.classes, start=1):
        rows[0][i] = cls.count * cls.size
        rows.append({0: c, i: cls.size - 1} if cls.size > 1 else {0: c})
    return rows


def adjacency_spectrum_gcs(params: GeneralizedParams) -> SpectrumResult:
    """Adjacency spectrum of the generalized family, from one quotient solve.

    Structural eigenvalues are exact integers; the t+1 remaining simple
    eigenvalues are the roots of the symmetrized quotient, snapped to
    integers.  A single satellite gives a complete graph.
    """
    roots = eigenvalues_symmetric(_in_float_range(symmetric_quotient, quotient(params)))
    c = params.core
    minus_one_mult = c + sum(cls.count * (cls.size - 1) for cls in params.classes) - 1
    pairs: list[tuple[float, int]] = [(-1.0, minus_one_mult)]
    for cls in params.classes:
        pairs.append((cls.size - 1, cls.count - 1))
    pairs.extend((root, 1) for root in _snap_integers(roots))
    return SpectrumResult(_merge_pairs(pairs))


# not in __all__: benchmarks/tracing.py still wraps this name
adjacency_spectrum_cs = adjacency_spectrum_gcs


def spectral_radius(params: GeneralizedParams) -> float:
    """Largest adjacency eigenvalue: the top value of ``adjacency_spectrum_gcs``."""
    return adjacency_spectrum_gcs(params).eigenpairs[0][0]


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
    """Eigenvector at the spectral radius: ``analytic_spectra(params).eigenvector``."""
    return analytic_spectra(params).eigenvector


def laplacian_spectrum_gcs(params: GeneralizedParams) -> SpectrumResult:
    """Laplacian spectrum of the generalized family; integer-valued.

    n with multiplicity c; c + s_i with multiplicity eta_i*(s_i - 1);
    c with multiplicity eta - 1; 0 once.
    """
    c, n = params.core, params.n
    pairs = [(n, c), (c, params.satellite_total - 1), (0, 1)]
    pairs += [(c + cls.size, cls.count * (cls.size - 1)) for cls in params.classes]
    return SpectrumResult(_merge_pairs(pairs))


def spectral_indices(params: GeneralizedParams) -> SpectralIndices:
    """Radius, threshold, sync index, connectivity: ``analytic_spectra(params).indices``."""
    return analytic_spectra(params).indices


def analytic_spectra(params: GeneralizedParams) -> SpectraReport:
    """Every closed-form spectral result of one parameter set.

    One call each of ``adjacency_spectrum_gcs`` and
    ``laplacian_spectrum_gcs``, looked up by module name, so a wrapper
    on either sees every report.  rho is the adjacency spectrum's top
    value.  Every node of class i carries beta_i = c / (rho - s_i + 1)
    in the principal eigenvector; with two satellites or more each
    beta_i lies in (0, 1), which floats break near s_i = 1e16 (the
    strict xfail, ROADMAP item 3).  The algebraic connectivity is the
    smallest positive Laplacian eigenvalue and the sync index its ratio
    to the largest: exactly c and c/n with two satellites or more, and
    n and 1 for the complete graph that a single satellite gives.
    """
    adjacency = adjacency_spectrum_gcs(params)
    laplacian = laplacian_spectrum_gcs(params)
    rho = adjacency.eigenpairs[0][0]
    c = params.core
    betas = tuple(c / (rho - cls.size + 1) for cls in params.classes)
    largest, smallest_positive = laplacian.eigenpairs[0][0], laplacian.eigenpairs[-2][0]
    pev = PrincipalEigenvector(eigenvalue=rho, core_value=1.0, class_values=betas)
    indices = SpectralIndices(
        spectral_radius=rho,
        infection_threshold=1.0 / rho,
        sync_index=smallest_positive / largest,
        algebraic_connectivity=smallest_positive,
    )
    return SpectraReport(adjacency, laplacian, pev, indices)


def max_spectrum_deviation(result: SpectrumResult, numeric_descending) -> float:
    """Max absolute gap between an analytic spectrum and numeric values."""
    analytic = result.expanded()
    numeric = list(map(float, numeric_descending))
    if len(analytic) != len(numeric):
        raise ValueError(
            f"spectrum size mismatch: analytic {len(analytic)} vs numeric {len(numeric)}"
        )
    return max(map(abs, map(sub, analytic, numeric)), default=0.0)

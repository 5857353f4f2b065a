"""Self-verification: every closed form against an independent route.

``run_checks`` executes the whole battery and returns per-check results;
the CLI renders them as a pass/fail table.  ``triangle_sign_fault``
injects a known-wrong triangle closed form so the pipeline can prove it
would catch a bad formula (negative control).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import metrics, oracle, spectra
from .graphs import Graph, core_satellite, generalized_core_satellite, is_connected
from .params import CoreSatelliteParams, GeneralizedParams

__all__ = ["CheckResult", "run_checks", "sample_generalized_params", "GRID"]

# c, s in 1..5, eta in 2..6: 125 single-class graphs, n <= 35
GRID = tuple(
    CoreSatelliteParams(c, s, eta)
    for c in range(1, 6)
    for s in range(1, 6)
    for eta in range(2, 7)
)

_SAMPLE_SEED = 20240612


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


# one case: its parameters, its graph and the graph's direct metrics.
# A plain tuple: a dataclass here would add about 2 ms to every import
# of the package.
_Case = tuple[GeneralizedParams, Graph, metrics.MetricsReport]


def _case(params: GeneralizedParams, graph: Graph) -> _Case:
    return params, graph, metrics.compute_metrics(graph)


def sample_generalized_params(
    count: int = 20,
    *,
    max_nodes: int = 200,
    seed: int = _SAMPLE_SEED,
) -> list[GeneralizedParams]:
    """Deterministic random multi-class parameter sets, 2..5 classes."""
    rng = random.Random(seed)
    out: list[GeneralizedParams] = []
    while len(out) < count:
        t = rng.randint(2, 5)
        sizes = rng.sample(range(1, 10), t)
        classes = [(size, rng.randint(1, 6)) for size in sorted(sizes)]
        core = rng.randint(1, 8)
        candidate = GeneralizedParams(core, classes)
        if candidate.n <= max_nodes:
            out.append(candidate)
    return out


def _check_counts_and_structure(cases: list[_Case]) -> CheckResult:
    for p, g, _ in cases:
        rep = metrics.analytic_metrics(p)
        if g.n != rep.n or g.m != rep.m:
            return CheckResult(
                "counts-closed-forms", False, f"{p}: n/m mismatch ({g.n},{g.m})"
            )
        degs = sorted(set(g.degrees()))
        expected = sorted({p.n - 1, *(p.core + cls.size - 1 for cls in p.classes)})
        if degs != expected:
            return CheckResult("counts-closed-forms", False, f"{p}: degrees {degs}")
        if not is_connected(g):
            return CheckResult("counts-closed-forms", False, f"{p}: not connected")
    return CheckResult("counts-closed-forms", True, f"{len(cases)} graphs")


def _check_clustering_closed_forms(cases: list[_Case], fault: bool) -> CheckResult:
    worst = 0.0
    for p, _, direct in cases:
        closed = metrics.analytic_metrics(p, triangle_sign_fault=fault)
        if closed.triangles != direct.triangles or closed.p2 != direct.p2:
            return CheckResult(
                "clustering-closed-forms",
                False,
                f"{p}: counts differ (closed t={closed.triangles}, direct t={direct.triangles})",
            )
        gap = max(
            abs(closed.avg_clustering - direct.avg_clustering),
            abs(closed.transitivity - direct.transitivity),
        )
        worst = max(worst, gap)
        if not gap <= 1e-12:
            return CheckResult("clustering-closed-forms", False, f"{p}: gap {gap:.3e}")
    return CheckResult("clustering-closed-forms", True, f"max gap {worst:.1e}")


def _check_assortativity(cases: list[_Case]) -> CheckResult:
    for p, _, direct in cases:
        r, r2 = direct.assortativity, direct.assortativity_estrada
        closed = metrics.analytic_metrics(p).assortativity
        if (r is None) != (r2 is None) or (r is None) != (closed is None):
            return CheckResult("assortativity", False, f"{p}: definedness differs")
        if r is None:
            continue
        if r >= 0:
            return CheckResult("assortativity", False, f"{p}: r={r} not negative")
        if not (abs(r - r2) <= 1e-12 and abs(r - closed) <= 1e-12):
            return CheckResult("assortativity", False, f"{p}: routes disagree")
    return CheckResult("assortativity", True, "negative, three routes agree")


def _check_enumeration(grid: list[_Case], max_enum_n: int) -> CheckResult:
    import numpy as np

    checked = 0
    for p, g, rep in grid:
        if p.n > max_enum_n:
            continue
        counts = oracle.exhaustive_subgraph_counts(g)
        if (counts.triangles, counts.p2, counts.p3, counts.s13) != (
            rep.triangles,
            rep.p2,
            rep.p3,
            rep.s13,
        ):
            return CheckResult("subgraph-enumeration", False, f"{p}: counts differ")
        a = oracle.adjacency_matrix(g)
        trace_t = round(float(np.trace(a @ a @ a)) / 6)
        if trace_t != counts.triangles:
            return CheckResult("subgraph-enumeration", False, f"{p}: trace(A^3)/6 differs")
        checked += 1
    return CheckResult("subgraph-enumeration", True, f"{checked} graphs enumerated")


def _check_adjacency(name: str, cases: list[_Case], dense_limit: int, tol: float) -> CheckResult:
    worst = 0.0
    for p, g, _ in cases:
        if p.n > dense_limit:
            continue
        result = spectra.adjacency_spectrum_gcs(p)
        numeric = oracle.eigenvalues_symmetric(oracle.adjacency_matrix(g))
        dev = spectra.max_spectrum_deviation(result, numeric)
        worst = max(worst, dev)
        if not dev <= tol:
            return CheckResult(name, False, f"{p}: deviation {dev:.3e}")
        # t+1 quotient roots, s_i-1 for each class of several copies, and
        # -1 unless the graph is a star (c = 1, every s_i = 1)
        minus_one = p.core > 1 or any(cls.size > 1 for cls in p.classes)
        expected_distinct = p.class_count + 1 + minus_one + sum(
            1 for cls in p.classes if cls.count > 1
        )
        if len(result.eigenpairs) != expected_distinct:
            return CheckResult(
                name,
                False,
                f"{p}: {len(result.eigenpairs)} distinct values, expected {expected_distinct}",
            )
    return CheckResult(name, True, f"max deviation {worst:.1e}")


def _check_laplacian(cases: list[_Case], dense_limit: int, tol: float) -> CheckResult:
    worst = 0.0
    for p, g, _ in cases:
        if p.n > dense_limit:
            continue
        result = spectra.laplacian_spectrum_gcs(p)
        for value, _ in result.eigenpairs:
            if value != int(value):
                return CheckResult("laplacian-spectra", False, f"{p}: non-integer {value}")
        numeric = oracle.eigenvalues_symmetric(oracle.laplacian_matrix(g))
        dev = spectra.max_spectrum_deviation(result, numeric)
        worst = max(worst, dev)
        if not dev <= tol:
            return CheckResult("laplacian-spectra", False, f"{p}: deviation {dev:.3e}")
        values = [v for v, _ in result.eigenpairs]
        if values[0] != p.n or values[-1] != 0 or values[-2] != p.core:
            return CheckResult("laplacian-spectra", False, f"{p}: endpoints wrong")
    return CheckResult("laplacian-spectra", True, f"max deviation {worst:.1e}")


def _check_bounds_and_eigenvector(cases: list[_Case], tol: float) -> CheckResult:
    import numpy as np

    for p, g, _ in cases:
        rho = spectra.spectral_radius(p)
        lower, upper = spectra.spectral_radius_bounds(p)
        if not (lower < rho < upper):
            return CheckResult("bounds-eigenvector", False, f"{p}: rho {rho} not in ({lower},{upper})")
        if rho < math.sqrt(p.n - 1) - 1e-12:
            return CheckResult("bounds-eigenvector", False, f"{p}: rho below sqrt(n-1)")
        pev = spectra.principal_eigenvector(p)
        if any(not 0.0 < beta < 1.0 for beta in pev.class_values):
            return CheckResult("bounds-eigenvector", False, f"{p}: beta out of (0,1)")
        if p.n <= 200:
            a = oracle.adjacency_matrix(g)
            vec = np.array(pev.to_vector(p))
            residual = float(np.max(np.abs(a @ vec - rho * vec)))
            if not residual <= 1e-8 * rho:
                return CheckResult("bounds-eigenvector", False, f"{p}: residual {residual:.3e}")
    return CheckResult("bounds-eigenvector", True, f"{len(cases)} parameter sets")


def _check_indices(cases: list[_Case]) -> CheckResult:
    for p, _, _ in cases:
        idx = spectra.spectral_indices(p)
        lap = spectra.laplacian_spectrum_gcs(p)
        values = [v for v, _ in lap.eigenpairs]
        largest, smallest_positive = values[0], values[-2]
        if Fraction(int(smallest_positive), int(largest)) != Fraction(p.core, p.n):
            return CheckResult("spectral-indices", False, f"{p}: sync ratio mismatch")
        if idx.sync_index != p.core / p.n:
            return CheckResult("spectral-indices", False, f"{p}: sync index mismatch")
        if idx.algebraic_connectivity != p.core:
            return CheckResult("spectral-indices", False, f"{p}: connectivity != core")
        if not abs(idx.infection_threshold * idx.spectral_radius - 1.0) <= 1e-12:
            return CheckResult("spectral-indices", False, f"{p}: threshold mismatch")
    return CheckResult("spectral-indices", True, "sync = core/n, connectivity = core")


def _check_divergence() -> CheckResult:
    base = CoreSatelliteParams(2, 3, 1000)
    rep = metrics.analytic_metrics(base)
    if not rep.avg_clustering > 0.999:
        return CheckResult("divergence", False, f"avg clustering {rep.avg_clustering}")
    if not rep.transitivity < 0.01:
        return CheckResult("divergence", False, f"transitivity {rep.transitivity}")
    prev = None
    for eta in range(2, 1001):
        rep = metrics.analytic_metrics(CoreSatelliteParams(2, 3, eta))
        if prev is not None and rep.transitivity > prev:
            return CheckResult("divergence", False, f"transitivity rose at eta={eta}")
        prev = rep.transitivity
    return CheckResult("divergence", True, "endpoints hold, transitivity decreasing")


def run_checks(
    *,
    tol: float = 1e-9,
    dense_limit: int = oracle.DEFAULT_DENSE_LIMIT,
    max_enum_n: int = 14,
    triangle_sign_fault: bool = False,
) -> list[CheckResult]:
    """Run the full verification battery; order is deterministic.

    Each ``GRID`` and ``sample_generalized_params()`` graph is built once,
    with its direct metrics, and shared by every check that reads it.
    """
    grid = [_case(p, core_satellite(p)) for p in GRID]
    sample = [_case(p, generalized_core_satellite(p)) for p in sample_generalized_params()]
    both = grid + sample
    return [
        _check_counts_and_structure(both),
        _check_clustering_closed_forms(both, triangle_sign_fault),
        _check_assortativity(both),
        _check_enumeration(grid, min(max_enum_n, oracle.DEFAULT_ENUM_LIMIT)),
        _check_adjacency("adjacency-spectra", grid, dense_limit, tol),
        _check_adjacency("generalized-spectra", sample, dense_limit, tol),
        _check_laplacian(both, dense_limit, tol),
        _check_bounds_and_eigenvector(both, tol),
        _check_indices(both),
        _check_divergence(),
    ]

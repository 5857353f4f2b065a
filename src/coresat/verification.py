"""Self-verification: every closed form against an independent route.

``run_checks`` executes the whole battery and returns per-check results;
the CLI renders them as a pass/fail table.  ``triangle_sign_fault``
injects a known-wrong triangle closed form so the pipeline can prove it
would catch a bad formula (negative control).

Each case is one parameter set with its graph, the graph's direct
metrics and its closed-form metrics (fault included), each computed
once and shared by every check.  A per-case check returns a problem
string, a deviation, or ``None`` when it skips the case.  ``_run``
applies one such check to a list of cases: it counts the cases run,
keeps the worst deviation and stops at the first problem.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from . import metrics, oracle, spectra
from .graphs import Graph, core_satellite, generalized_core_satellite, is_connected
from .params import GeneralizedParams

__all__ = ["CheckResult", "run_checks", "sample_generalized_params", "GRID"]

# c, s in 1..5, eta in 2..6: 125 single-class graphs, n <= 35
GRID = tuple(
    GeneralizedParams(c, [(s, eta)])
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


# one case: its parameters, its graph, the graph's direct metrics and
# the closed-form metrics.  A plain tuple: a dataclass here would add
# about 2 ms to every import of the package.
_Case = tuple[GeneralizedParams, Graph, metrics.MetricsReport, metrics.MetricsReport]
# a per-case check: a problem, a deviation, or None for a skipped case
_Outcome = str | float | None


def _case(params: GeneralizedParams, graph: Graph, fault: bool) -> _Case:
    direct = metrics.compute_metrics(graph)
    return params, graph, direct, metrics.analytic_metrics(params, triangle_sign_fault=fault)


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


def _run(
    name: str, check: Callable[[_Case], _Outcome], cases: list[_Case], detail: str
) -> CheckResult:
    """Apply ``check`` to every case; ``detail`` may name {run} and {worst}.

    A check that skips every case says so after its detail.
    """
    run, worst = 0, 0.0
    for case in cases:
        outcome = check(case)
        if isinstance(outcome, str):
            return CheckResult(name, False, f"{case[0]}: {outcome}")
        if outcome is not None:
            run += 1
            worst = max(worst, outcome)
    detail = detail.format(run=run, worst=worst)
    if not run:
        detail += f" (all {len(cases)} cases skipped)"
    return CheckResult(name, True, detail)


def _counts_and_structure(case: _Case) -> _Outcome:
    p, g, _, closed = case
    if g.n != closed.n or g.m != closed.m:
        return f"n/m mismatch ({g.n},{g.m})"
    degs = sorted(set(g.degrees()))
    expected = sorted({p.n - 1, *(p.core + cls.size - 1 for cls in p.classes)})
    if degs != expected:
        return f"degrees {degs}"
    if not is_connected(g):
        return "not connected"
    return 0.0


def _clustering_closed_forms(case: _Case) -> _Outcome:
    _, _, direct, closed = case
    gap = direct.gap(closed)
    if gap == math.inf:
        return f"counts differ (closed t={closed.triangles}, direct t={direct.triangles})"
    if not gap <= 1e-12:
        return f"gap {gap:.3e}"
    return gap


def _assortativity(case: _Case) -> _Outcome:
    _, _, direct, closed = case
    r, r2, r3 = direct.assortativity, direct.assortativity_estrada, closed.assortativity
    if (r is None) != (r2 is None) or (r is None) != (r3 is None):
        return "definedness differs"
    if r is None:
        return None
    if r >= 0:
        return f"r={r} not negative"
    if not (abs(r - r2) <= 1e-12 and abs(r - r3) <= 1e-12):
        return "routes disagree"
    return 0.0


def _enumeration(case: _Case, max_n: int) -> _Outcome:
    p, g, rep, _ = case
    if p.n > max_n:
        return None
    counts = oracle.exhaustive_subgraph_counts(g)
    if (counts.triangles, counts.p2, counts.p3, counts.s13) != (
        rep.triangles,
        rep.p2,
        rep.p3,
        rep.s13,
    ):
        return "counts differ"
    a = oracle.adjacency_matrix(g)
    if round(float(np.trace(a @ a @ a)) / 6) != counts.triangles:
        return "trace(A^3)/6 differs"
    return 0.0


def _adjacency(case: _Case, dense_limit: int, tol: float) -> _Outcome:
    p, g, _, _ = case
    if p.n > dense_limit:
        return None
    result = spectra.adjacency_spectrum_gcs(p)
    numeric = oracle.eigenvalues_symmetric(oracle.adjacency_matrix(g))
    dev = spectra.max_spectrum_deviation(result, numeric)
    if not dev <= tol:
        return f"deviation {dev:.3e}"
    # t+1 quotient roots, s_i-1 for each class of several copies, and
    # -1 unless the graph is a star (c = 1, every s_i = 1)
    minus_one = p.core > 1 or any(cls.size > 1 for cls in p.classes)
    expected_distinct = p.class_count + 1 + minus_one + sum(
        1 for cls in p.classes if cls.count > 1
    )
    if len(result.eigenpairs) != expected_distinct:
        return f"{len(result.eigenpairs)} distinct values, expected {expected_distinct}"
    return dev


def _laplacian(case: _Case, dense_limit: int, tol: float) -> _Outcome:
    p, g, _, _ = case
    if p.n > dense_limit:
        return None
    result = spectra.laplacian_spectrum_gcs(p)
    for value, _ in result.eigenpairs:
        if value != int(value):
            return f"non-integer {value}"
    numeric = oracle.eigenvalues_symmetric(oracle.laplacian_matrix(g))
    dev = spectra.max_spectrum_deviation(result, numeric)
    if not dev <= tol:
        return f"deviation {dev:.3e}"
    values = [v for v, _ in result.eigenpairs]
    if values[0] != p.n or values[-1] != 0 or values[-2] != p.core:
        return "endpoints wrong"
    return dev


def _bounds_and_eigenvector(case: _Case) -> _Outcome:
    p, g, _, _ = case
    rho = spectra.spectral_radius(p)
    lower, upper = spectra.spectral_radius_bounds(p)
    if not (lower < rho < upper):
        return f"rho {rho} not in ({lower},{upper})"
    if rho < math.sqrt(p.n - 1) - 1e-12:
        return "rho below sqrt(n-1)"
    pev = spectra.principal_eigenvector(p)
    if any(not 0.0 < beta < 1.0 for beta in pev.class_values):
        return "beta out of (0,1)"
    if p.n <= 200:
        a = oracle.adjacency_matrix(g)
        vec = np.array(pev.to_vector(p))
        residual = float(np.max(np.abs(a @ vec - rho * vec)))
        if not residual <= 1e-8 * rho:
            return f"residual {residual:.3e}"
    return 0.0


def _indices(case: _Case) -> _Outcome:
    p = case[0]
    idx = spectra.spectral_indices(p)
    lap = spectra.laplacian_spectrum_gcs(p)
    values = [v for v, _ in lap.eigenpairs]
    largest, smallest_positive = values[0], values[-2]
    if Fraction(int(smallest_positive), int(largest)) != Fraction(p.core, p.n):
        return "sync ratio mismatch"
    if idx.sync_index != p.core / p.n:
        return "sync index mismatch"
    if idx.algebraic_connectivity != p.core:
        return "connectivity != core"
    if not abs(idx.infection_threshold * idx.spectral_radius - 1.0) <= 1e-12:
        return "threshold mismatch"
    return 0.0


def _check_divergence() -> CheckResult:
    base = GeneralizedParams(2, [(3, 1000)])
    rep = metrics.analytic_metrics(base)
    if not rep.avg_clustering > 0.999:
        return CheckResult("divergence", False, f"avg clustering {rep.avg_clustering}")
    if not rep.transitivity < 0.01:
        return CheckResult("divergence", False, f"transitivity {rep.transitivity}")
    prev = None
    for eta in range(2, 1001):
        rep = metrics.analytic_metrics(GeneralizedParams(2, [(3, eta)]))
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
    with its direct and closed-form metrics, and shared by every check
    that reads it.
    """
    # the grid builds through the ``core_satellite`` alias, which the
    # benchmark's tracer wraps apart from ``generalized_core_satellite``
    grid = [_case(p, core_satellite(p), triangle_sign_fault) for p in GRID]
    sample = [
        _case(p, generalized_core_satellite(p), triangle_sign_fault)
        for p in sample_generalized_params()
    ]
    both = grid + sample
    enumeration = partial(_enumeration, max_n=min(max_enum_n, oracle.DEFAULT_ENUM_LIMIT))
    adjacency = partial(_adjacency, dense_limit=dense_limit, tol=tol)
    laplacian = partial(_laplacian, dense_limit=dense_limit, tol=tol)
    spread = "max deviation {worst:.1e}"
    return [
        _run("counts-closed-forms", _counts_and_structure, both, "{run} graphs"),
        _run("clustering-closed-forms", _clustering_closed_forms, both, "max gap {worst:.1e}"),
        _run("assortativity", _assortativity, both, "negative, three routes agree"),
        _run("subgraph-enumeration", enumeration, grid, "{run} graphs enumerated"),
        _run("adjacency-spectra", adjacency, grid, spread),
        _run("generalized-spectra", adjacency, sample, spread),
        _run("laplacian-spectra", laplacian, both, spread),
        _run("bounds-eigenvector", _bounds_and_eigenvector, both, "{run} parameter sets"),
        _run("spectral-indices", _indices, both, "sync = core/n, connectivity = core"),
        _check_divergence(),
    ]

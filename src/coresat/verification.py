"""Self-verification: every closed form against an independent route.

``run_checks`` executes the whole battery and returns per-check results;
the CLI renders them as a pass/fail table.  Beside the 125 sets of
``GRID`` it reads the twenty fixed multi-class sets of
``sample_generalized_params``.  ``triangle_sign_fault`` injects a
known-wrong triangle closed form so the pipeline can prove it would
catch a bad formula (negative control).

One ``run_checks`` call computes each object once and shares it with
every check that reads it.  It builds each graph, takes one
``spectra.analytic_spectra`` report per parameter set, then runs the
dense passes.  ``_dense`` builds one dense adjacency matrix A per graph
within the dense or the enumeration limit and returns, per graph in
order, the eigenvalues of A and of L = D - A within the dense limit
(all of one size in one stacked eigensolve) and trace(A^3) within the
enumeration limit.  Then each case is built whole from its set, graph,
report and dense values; no case is written to after.  Nothing
outlives the call.  A per-case check returns a problem string, a
deviation, or ``None`` when it skips the case.  ``_run`` applies one
such check to a list of cases: it counts the cases run, keeps the worst
deviation and stops at the first problem.  The divergence series is
exact: it compares transitivities over eta = 2..1000 as cross-multiplied
integer counts, and builds a metrics report only at eta = 1000.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import metrics, oracle, spectra
from .exceptions import InvalidParameterError
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

# largest n for the exhaustive-enumeration checks; ``verify --max-n`` reads it
DEFAULT_MAX_ENUM_N = 14

# run beside the sampled sets: its spectral radius 28.000884125608774
# lies 8.8e-4 from an integer, nearer than any root of GRID or of the
# samples that is not on one, so a snap of roots to integers that is
# too wide fails on it
_NEAR_INTEGER = GeneralizedParams(10, [(2, 1), (6, 7)])


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


class _Case:
    """One parameter set and what the checks read of its graph.

    ``spectra`` is the set's closed-form ``SpectraReport``, and
    ``adjacency``, ``laplacian`` and ``trace3`` its graph's triple from
    ``_dense``, both computed before any case is built.
    ``direct`` and ``closed`` are the graph's direct and closed-form
    metrics, computed here.  A plain class: a frozen dataclass here
    would add about 1.2 ms to every import of the package.
    """

    __slots__ = (
        "params", "graph", "direct", "closed", "adjacency", "laplacian", "trace3", "spectra"
    )

    def __init__(
        self,
        params: GeneralizedParams,
        graph: Graph,
        report: spectra.SpectraReport,
        dense: tuple,
        fault: bool,
    ) -> None:
        self.params, self.graph, self.spectra = params, graph, report
        self.adjacency, self.laplacian, self.trace3 = dense
        self.direct = metrics.compute_metrics(graph)
        self.closed = metrics.analytic_metrics(params, triangle_sign_fault=fault)


# a per-case check: a problem, a deviation, or None for a skipped case
_Outcome = str | float | None


def _dense(graphs: list[Graph], dense_limit: int, enum_limit: int) -> list[tuple]:
    """Per graph, in order: the eigenvalues of A and of L = D - A, and trace(A^3).

    The eigenvalues are descending, and each value is ``None`` past its
    limit.  One dense A is built per graph within either limit.
    Same-size graphs within the dense limit are solved together, A and
    L of each in one stacked call: each row of values is bit for bit
    what its matrix alone gives, and the stack holds one size at a time.
    """
    out: list[tuple] = [(None, None, None)] * len(graphs)
    by_size: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        if g.n <= max(dense_limit, enum_limit):
            by_size.setdefault(g.n, []).append(i)
    for n, group in by_size.items():
        matrices = [oracle.adjacency_matrix(graphs[i]) for i in group]
        traces = [float((a @ a @ a).trace()) if n <= enum_limit else None for a in matrices]
        values = [None] * (2 * len(group))
        if n <= dense_limit:
            laplacians = [-a for a in matrices]  # D - A, as ``oracle.laplacian_matrix`` builds it
            for i, lap in zip(group, laplacians):
                lap.flat[:: n + 1] = graphs[i].degrees()
            values = oracle.eigenvalues_symmetric(matrices + laplacians).tolist()
        for i, adjacency, laplacian, trace3 in zip(group, values, values[len(group):], traces):
            out[i] = adjacency, laplacian, trace3
    return out


def sample_generalized_params() -> list[GeneralizedParams]:
    """Twenty deterministic random parameter sets of 2..5 classes and at most 200 nodes."""
    rng = random.Random(_SAMPLE_SEED)
    out: list[GeneralizedParams] = []
    while len(out) < 20:
        t = rng.randint(2, 5)
        sizes = rng.sample(range(1, 10), t)
        classes = [(size, rng.randint(1, 6)) for size in sorted(sizes)]
        core = rng.randint(1, 8)
        candidate = GeneralizedParams(core, classes)
        if candidate.n <= 200:
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
            return CheckResult(name, False, f"{case.params}: {outcome}")
        if outcome is not None:
            run += 1
            worst = max(worst, outcome)
    detail = detail.format(run=run, worst=worst)
    if not run:
        detail += f" (all {len(cases)} cases skipped)"
    return CheckResult(name, True, detail)


def _counts_and_structure(case: _Case) -> _Outcome:
    p, g, closed = case.params, case.graph, case.closed
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
    direct, closed = case.direct, case.closed
    if direct != closed:
        return f"reports differ (closed t={closed.triangles}, direct t={direct.triangles})"
    return 0.0


def _assortativity(case: _Case) -> _Outcome:
    direct, closed = case.direct, case.closed
    r, r2, r3 = direct.assortativity, direct.assortativity_estrada, closed.assortativity
    if (r is None) != (r2 is None) or (r is None) != (r3 is None):
        return "definedness differs"
    if r is None:
        return None
    if r >= 0:
        return f"r={r} not negative"
    if not r == r2 == r3:
        return "routes disagree"
    return 0.0


def _enumeration(case: _Case) -> _Outcome:
    if case.trace3 is None:
        return None
    counts, rep = oracle.exhaustive_subgraph_counts(case.graph), case.direct
    if (counts.triangles, counts.p2, counts.p3, counts.s13) != (
        rep.triangles,
        rep.p2,
        rep.p3,
        rep.s13,
    ):
        return "counts differ"
    if round(case.trace3 / 6) != counts.triangles:
        return "trace(A^3)/6 differs"
    return 0.0


def _dense_gap(result: spectra.SpectrumResult, n: int, numeric, tol: float) -> _Outcome:
    """The worst gap from the dense eigenvalues ``numeric``, once the sizes agree."""
    if result.size != n:
        return f"{result.size} eigenvalues for n={n}"
    dev = spectra.max_spectrum_deviation(result, numeric)
    return dev if dev <= tol else f"deviation {dev:.3e}"


def _adjacency(case: _Case, tol: float) -> _Outcome:
    p = case.params
    if case.adjacency is None:
        return None
    result = case.spectra.adjacency
    # t+1 quotient roots, s_i-1 for each class of several copies, and
    # -1 unless the graph is a star (c = 1, every s_i = 1)
    minus_one = p.core > 1 or any(cls.size > 1 for cls in p.classes)
    expected_distinct = p.class_count + 1 + minus_one + sum(
        1 for cls in p.classes if cls.count > 1
    )
    if len(result.eigenpairs) != expected_distinct:
        return f"{len(result.eigenpairs)} distinct values, expected {expected_distinct}"
    return _dense_gap(result, p.n, case.adjacency, tol)


def _laplacian(case: _Case, tol: float) -> _Outcome:
    p = case.params
    if case.laplacian is None:
        return None
    result = case.spectra.laplacian
    for value, _ in result.eigenpairs:
        if value != int(value):
            return f"non-integer {value}"
    values = [v for v, _ in result.eigenpairs]
    if values[0] != p.n or values[-1] != 0 or values[-2] != p.core:
        return "endpoints wrong"
    return _dense_gap(result, p.n, case.laplacian, tol)


def _bounds_and_eigenvector(case: _Case) -> _Outcome:
    p = case.params
    rho = case.spectra.adjacency.eigenpairs[0][0]
    lower, upper = spectra.spectral_radius_bounds(p)
    if not (lower < rho < upper):
        return f"rho {rho} not in ({lower},{upper})"
    if rho < math.sqrt(p.n - 1) - 1e-12:
        return "rho below sqrt(n-1)"
    pev = case.spectra.eigenvector
    if any(not 0.0 < beta < 1.0 for beta in pev.class_values):
        return "beta out of (0,1)"
    vec = pev.to_vector(p)
    get = vec.__getitem__
    residual = max(abs(math.fsum(map(get, row)) - rho * x) for row, x in zip(case.graph.adj, vec))
    if not residual <= 1e-8 * rho:
        return f"residual {residual:.3e}"
    return 0.0


def _indices(case: _Case) -> _Outcome:
    p = case.params
    idx = case.spectra.indices
    values = [v for v, _ in case.spectra.laplacian.eigenpairs]
    largest, smallest_positive = values[0], values[-2]
    # the ratios cross-multiplied, in exact ints
    if int(smallest_positive) * p.n != p.core * int(largest):
        return "sync ratio mismatch"
    if idx.sync_index != p.core / p.n:
        return "sync index mismatch"
    if idx.algebraic_connectivity != p.core:
        return "connectivity != core"
    if idx.infection_threshold != 1.0 / idx.spectral_radius:
        return "threshold mismatch"
    return 0.0


def _check_divergence() -> CheckResult:
    """C -> 1 and T -> 0 at eta = 1000, and T falling over eta = 2..1000, exactly.

    T = 3t / p2, so T(eta + 1) <= T(eta) is t(eta + 1) * p2(eta) <=
    t(eta) * p2(eta + 1) in ints, with t and p2 from the integer counts
    of ``analytic_metrics``.
    """
    rep = metrics.analytic_metrics(GeneralizedParams(2, [(3, 1000)]))
    if not rep.avg_clustering > 0.999:
        return CheckResult("divergence", False, f"avg clustering {rep.avg_clustering}")
    if not rep.transitivity < 0.01:
        return CheckResult("divergence", False, f"transitivity {rep.transitivity}")
    counts = [metrics._closed_counts(2, [(3, eta)])[:2] for eta in range(2, 1001)]
    for eta, (t0, p0), (t1, p1) in zip(range(3, 1001), counts, counts[1:]):
        if t1 * p0 > t0 * p1:
            return CheckResult("divergence", False, f"transitivity rose at eta={eta}")
    return CheckResult("divergence", True, "endpoints hold, transitivity decreasing")


def run_checks(
    *,
    tol: float = 1e-9,
    dense_limit: int = oracle.DEFAULT_DENSE_LIMIT,
    max_enum_n: int = DEFAULT_MAX_ENUM_N,
    triangle_sign_fault: bool = False,
) -> list[CheckResult]:
    """Run the full verification battery; order is deterministic.

    Each graph of ``GRID``, of ``sample_generalized_params()`` and of one
    fixed set with a root near an integer is built once.  Its case is
    built whole, with its one ``spectra.analytic_spectra`` report, its
    values from ``_dense`` and its direct and closed-form metrics, and
    shared by every check that reads it.  So each parameter set's
    quotient is solved once per call, and no result is kept for the
    next.  ``tol`` must be finite and > 0: an infinite one passes any
    spectrum, and a negative one fails a correct one.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidParameterError(f"tol must be a finite number > 0, got {tol!r}")
    sampled = [*sample_generalized_params(), _NEAR_INTEGER]
    # the grid builds through the ``core_satellite`` alias, which the
    # benchmark's tracer wraps apart from ``generalized_core_satellite``
    graphs = [*map(core_satellite, GRID), *map(generalized_core_satellite, sampled)]
    reports = [spectra.analytic_spectra(p) for p in (*GRID, *sampled)]
    # only the grid is enumerated
    dense = _dense(graphs[: len(GRID)], dense_limit, min(max_enum_n, oracle.DEFAULT_ENUM_LIMIT))
    dense += _dense(graphs[len(GRID):], dense_limit, 0)
    both = [
        _Case(*case, triangle_sign_fault)
        for case in zip([*GRID, *sampled], graphs, reports, dense)
    ]
    grid, sample = both[: len(GRID)], both[len(GRID):]
    adjacency = partial(_adjacency, tol=tol)
    laplacian = partial(_laplacian, tol=tol)
    spread = "max deviation {worst:.1e}"
    return [
        _run("counts-closed-forms", _counts_and_structure, both, "{run} graphs"),
        _run("clustering-closed-forms", _clustering_closed_forms, both, "max gap {worst:.1e}"),
        _run("assortativity", _assortativity, both, "negative, three routes agree"),
        _run("subgraph-enumeration", _enumeration, grid, "{run} graphs enumerated"),
        _run("adjacency-spectra", adjacency, grid, spread),
        _run("generalized-spectra", adjacency, sample, spread),
        _run("laplacian-spectra", laplacian, both, spread),
        _run("bounds-eigenvector", _bounds_and_eigenvector, both, "{run} parameter sets"),
        _run("spectral-indices", _indices, both, "sync = core/n, connectivity = core"),
        _check_divergence(),
    ]

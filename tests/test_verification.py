from __future__ import annotations

import ast
import dataclasses
import threading
from collections import Counter
from pathlib import Path

import pytest

from conftest import add_one_to_a_multiplicity
from coresat import InvalidParameterError, generalized_core_satellite, run_checks, verification
from coresat.verification import GRID, sample_generalized_params

EXPECTED_ORDER = [
    "counts-closed-forms",
    "clustering-closed-forms",
    "assortativity",
    "subgraph-enumeration",
    "adjacency-spectra",
    "generalized-spectra",
    "laplacian-spectra",
    "bounds-eigenvector",
    "spectral-indices",
    "divergence",
]


def test_grid_shape():
    assert len(GRID) == 125
    assert all(p.classes[0].count >= 2 for p in GRID)


def test_sampled_params_are_deterministic_and_canonical():
    a = sample_generalized_params()
    b = sample_generalized_params()
    assert a == b
    assert len(a) == 20
    for p in a:
        assert p.n <= 200
        sizes = [cls.size for cls in p.classes]
        assert sizes == sorted(sizes)
        assert len(set(sizes)) == len(sizes)


def test_full_battery_passes():
    results = run_checks()
    assert [r.name for r in results] == EXPECTED_ORDER
    failures = [r for r in results if not r.passed]
    assert failures == [], [f"{r.name}: {r.detail}" for r in failures]


def test_injected_fault_is_caught():
    results = run_checks(triangle_sign_fault=True)
    # the fault only touches the closed-form triangle count; independent
    # checks still pass
    assert [r.name for r in results if not r.passed] == ["clustering-closed-forms"]


@pytest.mark.parametrize("tol", [0, -1, float("nan"), float("inf")])
def test_tolerance_must_be_finite_and_positive(tol):
    # an infinite tolerance would pass a wrong spectrum and a negative
    # one fail a right one; argparse refuses the same values for --tol
    with pytest.raises(InvalidParameterError, match="tol must be a finite number > 0"):
        run_checks(tol=tol)


def test_a_rise_in_the_divergence_series_fails_its_check(monkeypatch):
    # the series reads the integer counts that analytic_metrics is built
    # from, so a rise planted there, the least one at eta = 500, fails it
    real = verification.metrics._closed_counts
    eta_500 = [(3, 500)]

    def risen(core, classes, sign_fault=False):
        counts = real(core, classes, sign_fault)
        if (core, classes) == (2, eta_500):
            t, p2, *rest = counts
            before = real(2, [(3, 499)])
            # the least t with t / p2 above t(499) / p2(499)
            t = before[0] * p2 // before[1] + 1
            counts = t, p2, *rest
        return counts

    monkeypatch.setattr(verification.metrics, "_closed_counts", risen)
    results = run_checks(dense_limit=1, max_enum_n=1)
    assert [(r.name, r.detail) for r in results if not r.passed] == [
        ("divergence", "transitivity rose at eta=500")
    ]


def test_closed_form_checks_cover_the_sampled_multiclass_graphs(monkeypatch):
    real = verification.metrics.analytic_metrics

    def off_on_multiclass(params, **kwargs):
        rep = real(params, **kwargs)
        if params.class_count == 1:
            return rep
        return dataclasses.replace(
            rep, m=rep.m + 1, triangles=rep.triangles + 1, assortativity=rep.assortativity + 1e-9
        )

    monkeypatch.setattr(verification.metrics, "analytic_metrics", off_on_multiclass)
    by_name = {r.name: r for r in run_checks()}
    first = sample_generalized_params()[0]
    for name in ("counts-closed-forms", "clustering-closed-forms", "assortativity"):
        assert not by_name[name].passed, name
        assert by_name[name].detail.startswith(f"{first}:"), name


def test_tight_tolerance_still_passes():
    results = run_checks(tol=1e-10, max_enum_n=10)
    assert all(r.passed for r in results)


def test_each_case_is_built_and_measured_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in (
        (verification, "core_satellite"),
        (verification, "generalized_core_satellite"),
        (verification.metrics, "compute_metrics"),
        (verification.metrics, "analytic_metrics"),
    ):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    assert all(r.passed for r in run_checks())
    sampled = len(sample_generalized_params()) + 1  # and the fixed near-integer case
    assert calls == Counter(
        core_satellite=len(GRID),
        generalized_core_satellite=sampled,
        compute_metrics=len(GRID) + sampled,
        # one per case, and the divergence endpoints at eta = 1000; the
        # series over eta = 2..1000 reads integer counts, not reports
        analytic_metrics=len(GRID) + sampled + 1,
    )


def test_each_quotient_is_solved_once_per_call(monkeypatch):
    # counted where spectra calls the solver, matrix by matrix inside
    # each stacked solve.  Every route of one call takes its roots from
    # one solve, and nothing is kept for the next call: a cache across
    # calls would make the second count lower
    spectra = verification.spectra
    quotients, solves = [], []

    def counted(route, seen):
        def wrapper(arg):
            seen.append(arg)
            return route(arg)

        return wrapper

    monkeypatch.setattr(spectra, "quotient", counted(spectra.quotient, quotients))
    monkeypatch.setattr(
        spectra, "eigenvalues_symmetric", counted(spectra.eigenvalues_symmetric, solves)
    )
    cases = {*GRID, *sample_generalized_params(), verification._NEAR_INTEGER}
    for _ in range(2):
        quotients.clear()
        solves.clear()
        assert all(r.passed for r in run_checks())
        assert set(quotients) >= cases
        # one stack per quotient size: 2 cells on the grid, 3 to 6 in the samples
        sizes = [len(stack[0]) for stack in solves]
        assert len(sizes) == len(set(sizes))
        solved = sum(map(len, solves))
        assert solved == len(quotients) == len(set(quotients))


def test_each_dense_laplacian_is_the_oracles_matrix(monkeypatch):
    # the dense solve builds L = D - A from each A in place; every L it
    # solves is ``oracle.laplacian_matrix`` of its graph, byte for byte,
    # so a -0.0 in place of 0.0 shows too
    oracle = verification.oracle
    real_adjacency, real_solve = oracle.adjacency_matrix, oracle.eigenvalues_symmetric
    graph_of, stacks = {}, []

    def adjacency(g):
        a = real_adjacency(g)
        graph_of[id(a)] = g, a  # holding a keeps its id unique
        return a

    def solve(stack):
        stacks.append(list(stack))
        return real_solve(stack)

    monkeypatch.setattr(oracle, "adjacency_matrix", adjacency)
    monkeypatch.setattr(oracle, "eigenvalues_symmetric", solve)
    assert all(r.passed for r in run_checks())
    monkeypatch.undo()
    checked = 0
    for stack in stacks:
        # one stack per size: the adjacency matrices, then their Laplacians
        half = len(stack) // 2
        for a, lap in zip(stack[:half], stack[half:]):
            g, built = graph_of[id(a)]
            assert built is a
            expected = oracle.laplacian_matrix(g)
            assert (lap.dtype, lap.shape) == (expected.dtype, expected.shape)
            assert lap.tobytes() == expected.tobytes(), g
            checked += 1
    assert checked == len(GRID) + len(sample_generalized_params()) + 1


@pytest.mark.parametrize(
    "dense_limit, enum_limit", [(2000, 50), (8, 12), (12, 8), (25, 0), (1, 1)]
)
def test_dense_returns_each_graphs_values_in_order(dense_limit, enum_limit):
    oracle = verification.oracle
    params = [*GRID[::7], *(p for p in sample_generalized_params() if p.n <= 40)]
    graphs = [generalized_core_satellite(p) for p in params]
    solve = oracle.eigenvalues_symmetric
    triples = verification._dense(graphs, dense_limit, enum_limit)
    assert len(triples) == len(graphs)
    for g, (adjacency, laplacian, trace3) in zip(graphs, triples):
        if g.n <= dense_limit:
            # bit for bit what each matrix solved alone gives: repr tells -0.0 from 0.0
            assert repr(adjacency) == repr(solve(oracle.adjacency_matrix(g)).tolist())
            assert repr(laplacian) == repr(solve(oracle.laplacian_matrix(g)).tolist())
            assert len(adjacency) == len(laplacian) == g.n
        else:
            assert adjacency is None and laplacian is None
        if g.n <= enum_limit:
            assert trace3 == 6.0 * oracle.exhaustive_subgraph_counts(g).triangles
        else:
            assert trace3 is None


def test_no_case_is_written_to_after_construction():
    # every attribute that verification assigns is assigned in
    # ``_Case.__init__``, so each case is built whole
    tree = ast.parse(Path(verification.__file__).read_text(encoding="utf-8"))
    (init,) = [
        node
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "_Case"
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    ]
    inside = {id(node) for node in ast.walk(init)}
    written = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            written.append(node.lineno)
        func = getattr(node, "func", None)
        if getattr(func, "id", getattr(func, "attr", None)) in ("setattr", "__setattr__"):
            written.append(node.lineno)
    assert written == []


def test_concurrent_calls_give_the_serial_result_and_keep_nothing(monkeypatch):
    spectra = verification.spectra
    solves = []
    real = spectra.eigenvalues_symmetric

    def counted(matrix):
        solves.append(matrix)
        return real(matrix)

    serial = run_checks()
    monkeypatch.setattr(spectra, "eigenvalues_symmetric", counted)
    # the two calls overlap in most rounds, not in every one
    for _ in range(3):
        start = threading.Barrier(2, timeout=60)
        results = [None, None]

        def worker(i):
            start.wait()
            results[i] = run_checks()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [serial, serial]

        # nothing from either call answers a later one: each call solves
        solves.clear()
        spectra.spectral_radius(GRID[0])
        spectra.spectral_radius(GRID[0])
        assert len(solves) == 2


def test_eigenvector_residual_is_read_from_the_rows(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("dense matrix built")

    # with every dense and enumeration check skipped, no dense matrix is built
    for name in ("adjacency_matrix", "laplacian_matrix"):
        monkeypatch.setattr(verification.oracle, name, refused)
    by_name = {r.name: r for r in run_checks(dense_limit=1, max_enum_n=1)}
    assert all(r.passed for r in by_name.values())
    assert by_name["bounds-eigenvector"].detail == f"{len(GRID) + 21} parameter sets"

    real = verification.spectra.analytic_spectra_batch

    def off(batch):
        reports = []
        for report in real(batch):
            pev = report.eigenvector
            pev = dataclasses.replace(pev, core_value=pev.core_value * (1 + 1e-6))
            reports.append(dataclasses.replace(report, eigenvector=pev))
        return reports

    monkeypatch.setattr(verification.spectra, "analytic_spectra_batch", off)
    by_name = {r.name: r for r in run_checks(dense_limit=1, max_enum_n=1)}
    assert not by_name["bounds-eigenvector"].passed
    assert "residual" in by_name["bounds-eigenvector"].detail


@pytest.mark.parametrize(
    "route, failed",
    [
        ("adjacency_spectrum_gcs", ["adjacency-spectra", "generalized-spectra"]),
        ("laplacian_spectrum_gcs", ["laplacian-spectra"]),
    ],
)
def test_a_wrong_multiplicity_fails_its_check(route, failed, monkeypatch):
    # the sizes are compared before the deviation, which needs equal sizes
    add_one_to_a_multiplicity(monkeypatch, route)
    results = run_checks(max_enum_n=6)
    assert [r.name for r in results if not r.passed] == failed
    first = GRID[0]
    assert results[EXPECTED_ORDER.index(failed[0])].detail == (
        f"{first}: {first.n + 1} eigenvalues for n={first.n}"
    )


def test_the_infection_threshold_is_checked_exactly(monkeypatch):
    # analytic_spectra defines the threshold as 1.0 / rho, so one that is
    # off by a factor of 1 + 1e-13 is a wrong one
    real = verification.spectra.analytic_spectra_batch

    def off(batch):
        reports = []
        for report in real(batch):
            idx = report.indices
            scaled = idx.infection_threshold * (1 + 1e-13)
            idx = dataclasses.replace(idx, infection_threshold=scaled)
            reports.append(dataclasses.replace(report, indices=idx))
        return reports

    monkeypatch.setattr(verification.spectra, "analytic_spectra_batch", off)
    by_name = {r.name: r for r in run_checks(dense_limit=1, max_enum_n=1)}
    assert [name for name, r in by_name.items() if not r.passed] == ["spectral-indices"]
    assert by_name["spectral-indices"].detail == f"{GRID[0]}: threshold mismatch"

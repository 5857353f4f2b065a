"""Each workload's checks pass on the program and fail on a planted fault.

Faults are planted with monkeypatch on the imported coresat modules,
through the attribute the caller looks up, and undone after each test.
"""
from __future__ import annotations

import dataclasses

import pytest

import workloads
from reference import Family


def _errors(ops):
    return [op.check(op.fn()) for op in ops]


def _plus_one_triangle(fn):
    def faulty(*args, **kwargs):
        rep = fn(*args, **kwargs)
        return dataclasses.replace(rep, triangles=rep.triangles + 1)

    return faulty


# -- sweep -------------------------------------------------------------------

def _small_rows(mods):
    return [workloads._sweep_op(mods, c, p) for c, p in ((3, 1), (5, 2), (10, 3))]


def test_sweep_rows_pass(mods):
    assert _errors(_small_rows(mods)) == [None, None, None]


def test_sweep_catches_a_wrong_triangle_count(mods, monkeypatch):
    monkeypatch.setattr(mods["metrics"], "compute_metrics",
                        _plus_one_triangle(mods["metrics"].compute_metrics))
    assert all(e and e.startswith("triangles") for e in _errors(_small_rows(mods)))


def test_sweep_catches_a_clustering_off_by_1e_11(mods, monkeypatch):
    original = mods["metrics"].compute_metrics

    def faulty(g):
        rep = original(g)
        return dataclasses.replace(rep, avg_clustering=rep.avg_clustering + 1e-11)

    monkeypatch.setattr(mods["metrics"], "compute_metrics", faulty)
    assert all(e and e.startswith("avg_clustering") for e in _errors(_small_rows(mods)))


def test_sweep_covers_the_default_sweep(mods):
    ops, _ = workloads.sweep(mods, 7)
    labels = {op.label for op in ops}
    assert len(ops) == len(labels) == 300
    assert "sweep c=10 p=100" in labels


# -- verify ------------------------------------------------------------------

def _negative_control(mods):
    return workloads._verify_op(mods, "negative-control", ["--fault-triangle-sign", "--max-n", "6"])


def test_verify_negative_control_passes_its_check(mods):
    op = _negative_control(mods)
    result = op.fn()
    assert result[0] == 1
    assert op.check(result) is None


def test_verify_catches_a_negative_control_that_exits_0(mods, monkeypatch):
    original = mods["verification"].run_checks

    def blind(**kwargs):
        kwargs["triangle_sign_fault"] = False
        return original(**kwargs)

    monkeypatch.setattr(mods["verification"], "run_checks", blind)
    op = _negative_control(mods)
    assert "negative control exited 0" in op.check(op.fn())


def test_verify_catches_a_failing_check_in_the_default_battery(mods, monkeypatch):
    monkeypatch.setattr(mods["metrics"], "compute_metrics",
                        _plus_one_triangle(mods["metrics"].compute_metrics))
    op = workloads._verify_op(mods, "default", ["--max-n", "6"])
    assert "exited 1" in op.check(op.fn())


def test_verify_catches_a_vacuous_enumeration(mods):
    op = workloads._verify_op(mods, "default", ["--max-n", "1", "--dense-limit", "1"])
    assert op.check(op.fn()) == "subgraph-enumeration passed on zero graphs"


def test_verify_ops_hold_the_default_battery_and_the_negative_control(mods):
    ops, _ = workloads.verify(mods, 3)
    labels = [op.label for op in ops]
    assert "coresat verify" in labels
    assert "coresat verify --fault-triangle-sign" in labels
    assert len(ops) == 9


# -- inspect -----------------------------------------------------------------

SMALL = (3, ((2, 2), (3, 1)))


def _inspect_ops(mods, kind):
    return [op for op in workloads._inspect_ops(mods, *SMALL) if op.kind == kind]


def test_inspect_ops_pass(mods):
    ops = workloads._inspect_ops(mods, *SMALL)
    assert len(ops) == 5
    assert _errors(ops) == [None] * 5


@pytest.mark.parametrize("fmt", ["edgelist", "mtx", "dot"])
def test_inspect_catches_a_dropped_edge(mods, monkeypatch, fmt):
    formats = mods["io"].GRAPH_FORMATS
    writer = formats[fmt]
    graphs = mods["graphs"]

    def drop_last_edge(g):
        return writer(graphs.Graph(g.n, g.edges[:-1]))

    monkeypatch.setitem(formats, fmt, drop_last_edge)
    (op,) = _inspect_ops(mods, f"generate-{fmt}")
    assert op.check(op.fn()) is not None


def test_inspect_catches_a_rewired_edge(mods, monkeypatch):
    """Same m, one edge moved: the degree multiset changes."""
    formats = mods["io"].GRAPH_FORMATS
    writer = formats["edgelist"]
    graphs = mods["graphs"]

    def rewire(g):
        # core node 0 loses an edge, two satellites of different cliques gain one
        edges = [e for e in g.edges if e != (0, g.n - 1)]
        spare = next((a, b) for a in range(g.n) for b in range(a + 1, g.n) if (a, b) not in g.edges)
        return writer(graphs.Graph(g.n, edges + [spare]))

    monkeypatch.setitem(formats, "edgelist", rewire)
    (op,) = _inspect_ops(mods, "generate-edgelist")
    assert op.check(op.fn()).startswith("degree multiset")


def test_inspect_catches_wrong_metrics(mods, monkeypatch):
    monkeypatch.setattr(mods["metrics"], "compute_metrics",
                        _plus_one_triangle(mods["metrics"].compute_metrics))
    (op,) = _inspect_ops(mods, "metrics")
    assert op.check(op.fn()).startswith("direct: triangles")


def test_inspect_catches_a_shifted_spectrum_the_program_accepts(mods, monkeypatch):
    """Both routes shifted alike: the program's own comparison passes,
    the trace identities do not."""
    oracle, spectra = mods["oracle"], mods["spectra"]
    eig = oracle.eigenvalues_symmetric

    def shifted(mat):
        values = eig(mat).copy()
        if not mat.diagonal().any():  # the adjacency matrix, not the Laplacian
            values[-1] -= 0.5
        return values

    adjacency = spectra.adjacency_spectrum_gcs

    def shifted_analytic(params):
        result = adjacency(params)
        pairs = list(result.eigenpairs)
        value, mult = pairs[-1]
        pairs[-1:] = [(value, mult - 1), (value - 0.5, 1)] if mult > 1 else [(value - 0.5, 1)]
        return dataclasses.replace(result, eigenpairs=tuple(pairs))

    monkeypatch.setattr(oracle, "eigenvalues_symmetric", shifted)
    monkeypatch.setattr(spectra, "adjacency_spectrum_gcs", shifted_analytic)
    (op,) = _inspect_ops(mods, "spectrum")
    result = op.fn()
    assert result[0] == 0
    assert "sum of lambda^1" in op.check(result)


# -- analytic ----------------------------------------------------------------

def _analytic_sample(mods, count=12):
    import random

    rng = random.Random(5)
    return [workloads._analytic_op(mods, *workloads.analytic_classes(rng, 1 + i % 6))
            for i in range(count)]


def test_analytic_ops_pass(mods):
    assert _errors(_analytic_sample(mods)) == [None] * 12


def test_analytic_known_failures_fail_on_the_enclosure(mods):
    ops = [workloads._analytic_op(mods, core, classes, True)
           for core, classes in workloads.KNOWN_FAILING]
    for error in _errors(ops):
        assert error is not None and "not strictly inside" in error


def test_analytic_catches_a_radius_on_its_upper_bound(mods, monkeypatch):
    spectra = mods["spectra"]
    bounds = spectra.spectral_radius_bounds

    def touching(params):
        lower, _ = bounds(params)
        return lower, spectra.spectral_radius(params)

    monkeypatch.setattr(spectra, "spectral_radius_bounds", touching)
    assert all("not strictly inside" in e for e in _errors(_analytic_sample(mods)))


def test_analytic_catches_a_wrong_laplacian_multiplicity(mods, monkeypatch):
    spectra = mods["spectra"]
    laplacian = spectra.laplacian_spectrum_gcs

    def faulty(params):
        result = laplacian(params)
        (value, mult), *rest = result.eigenpairs
        return dataclasses.replace(result, eigenpairs=((value, mult + 1), *rest))

    monkeypatch.setattr(spectra, "laplacian_spectrum_gcs", faulty)
    assert all("not n=" in e for e in _errors(_analytic_sample(mods)))


def test_analytic_catches_a_moved_adjacency_eigenvalue(mods, monkeypatch):
    """Multiplicities still sum to n, but sum of lambda is off by one."""
    spectra = mods["spectra"]
    adjacency = spectra.adjacency_spectrum_gcs

    def faulty(params):
        result = adjacency(params)
        pairs = list(result.eigenpairs)
        value, mult = pairs[-1]
        pairs[-1:] = [(value, mult - 1), (value - 1.0, 1)] if mult > 1 else [(value - 1.0, 1)]
        return dataclasses.replace(result, eigenpairs=tuple(pairs))

    monkeypatch.setattr(spectra, "adjacency_spectrum_gcs", faulty)
    assert all("sum of lambda^1" in e for e in _errors(_analytic_sample(mods)))


def test_analytic_catches_a_wrong_closed_form_triangle_count(mods, monkeypatch):
    monkeypatch.setattr(mods["metrics"], "analytic_metrics",
                        _plus_one_triangle(mods["metrics"].analytic_metrics))
    ops = [op for op in _analytic_sample(mods) if op.kind == "classes-1"]
    assert ops and all(e.startswith("triangles") for e in _errors(ops))


def test_analytic_generator_never_hits_the_known_fault(mods):
    """No seeded set fails: only the named group may, on every run."""
    for seed in range(3):
        ops, _ = workloads.analytic(mods, seed)
        failing = [op for op in ops if op.check(op.fn()) is not None]
        assert failing and all(op.known_failure for op in failing)
        assert len(failing) == len(workloads.KNOWN_FAILING)

from __future__ import annotations

import itertools
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    GRID_PARAMS,
    arbitrary_graphs,
    generalized_params,
    labelled_graphs,
    lookalike_runs,
    planted_twin_graphs,
    relabelled_family_graphs,
)
from coresat import (
    GeneralizedParams,
    Graph,
    SizeLimitError,
    adjacency_matrix,
    complete_graph,
    eigenvalues_symmetric,
    exhaustive_subgraph_counts,
    generalized_core_satellite,
    compute_metrics,
    laplacian_matrix,
    sample_generalized_params,
    star,
)
from coresat import oracle
from coresat.graphs import _twin_runs
from coresat.oracle import symmetric_quotient, twin_reduced_spectra


def test_adjacency_matrix_butterfly():
    g = generalized_core_satellite(GeneralizedParams(1, [(2, 2)]))
    a = adjacency_matrix(g)
    assert a.shape == (5, 5)
    assert a.dtype == np.float64
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)
    assert a.sum() == 2 * g.m
    assert a[1, 2] == 1 and a[3, 4] == 1 and a[1, 3] == 0


def test_adjacency_matrix_equals_the_matrix_filled_edge_by_edge():
    graphs = [generalized_core_satellite(p) for p in GRID_PARAMS] + [Graph(0, []), Graph(3, [])]
    for g in graphs:
        loop = np.zeros((g.n, g.n))
        for u, v in g.edges:
            loop[u, v] = 1.0
            loop[v, u] = 1.0
        assert np.array_equal(adjacency_matrix(g), loop), g
        loop[np.diag_indices(g.n)] = -np.array(g.degrees(), dtype=float)
        assert np.array_equal(laplacian_matrix(g), -loop), g


def test_laplacian_matrix_rows_sum_to_zero():
    g = generalized_core_satellite(GeneralizedParams(2, [(2, 3)]))
    lap = laplacian_matrix(g)
    assert np.all(lap.sum(axis=1) == 0)
    assert np.all(np.diag(lap) == g.degrees())


def test_size_guard():
    g = complete_graph(12)
    with pytest.raises(SizeLimitError):
        adjacency_matrix(g, max_n=10)
    with pytest.raises(SizeLimitError):
        laplacian_matrix(g, max_n=10)


def test_eigenvalues_known_small_cases():
    # K3: {2, -1, -1}
    vals = eigenvalues_symmetric(adjacency_matrix(complete_graph(3)))
    assert vals == pytest.approx([2.0, -1.0, -1.0], abs=1e-12)
    # identity matrix
    vals = eigenvalues_symmetric(np.eye(4))
    assert vals == pytest.approx([1.0] * 4, abs=1e-15)
    # descending order is part of the contract
    vals = eigenvalues_symmetric(adjacency_matrix(star(4)))
    assert list(vals) == sorted(vals, reverse=True)
    assert vals[0] == pytest.approx(2.0, abs=1e-12)


def test_eigenvalues_rejects_bad_input():
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.zeros((2, 3)))
    asym = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        eigenvalues_symmetric(asym)
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@settings(max_examples=60)
@given(arbitrary_graphs(max_nodes=7))
def test_eigenvalue_trace_identities(g):
    a = adjacency_matrix(g)
    vals = np.asarray(eigenvalues_symmetric(a))
    assert vals.sum() == pytest.approx(0.0, abs=1e-9)
    assert (vals**2).sum() == pytest.approx(2 * g.m, abs=1e-9)
    assert (vals**3).sum() == pytest.approx(6 * compute_metrics(g).triangles, abs=1e-8)


def test_exhaustive_counts_on_named_graphs():
    butterfly = generalized_core_satellite(GeneralizedParams(1, [(2, 2)]))
    counts = exhaustive_subgraph_counts(butterfly)
    assert counts.triangles == 2
    assert counts.p2 == 10
    assert counts.p3 == 8
    assert counts.s13 == 4

    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    counts = exhaustive_subgraph_counts(p4)
    assert (counts.triangles, counts.p2, counts.p3, counts.s13) == (0, 2, 1, 0)

    k4 = complete_graph(4)
    counts = exhaustive_subgraph_counts(k4)
    assert (counts.triangles, counts.p2, counts.p3, counts.s13) == (4, 12, 12, 4)

    # textbook counts: (triangles, 2-paths, 3-paths, 3-stars)
    comb = math.comb
    for n in range(1, 11):
        families = [
            (complete_graph(n), (comb(n, 3), 3 * comb(n, 3), 12 * comb(n, 4), 4 * comb(n, 4))),
            (Graph(n, [(u, u + 1) for u in range(n - 1)]), (0, max(n - 2, 0), max(n - 3, 0), 0)),
            (star(n), (0, comb(n, 2), 0, comb(n, 3))),
        ]
        if n >= 4:
            families.append((Graph(n, [(u, (u + 1) % n) for u in range(n)]), (0, n, n, 0)))
        for g, expected in families:
            counts = exhaustive_subgraph_counts(g)
            assert (counts.triangles, counts.p2, counts.p3, counts.s13) == expected, (g, n)


def test_each_3_path_is_listed_once():
    # an independent listing: every ordered 4-tuple of distinct nodes
    # that forms a path, each path once from each end
    graphs = [*labelled_graphs(5)]
    assert len(graphs) == 1100
    graphs += [generalized_core_satellite(p) for p in GRID_PARAMS if p.n <= 8]
    for g in graphs:
        nbrs = [set(row) for row in g.adj]
        ordered = sum(
            b in nbrs[a] and c in nbrs[b] and d in nbrs[c]
            for a, b, c, d in itertools.permutations(range(g.n), 4)
        )
        assert exhaustive_subgraph_counts(g).p3 == ordered // 2, g.edges


def test_exhaustive_guard():
    with pytest.raises(SizeLimitError):
        exhaustive_subgraph_counts(complete_graph(9), max_n=8)


@settings(max_examples=60)
@given(arbitrary_graphs(max_nodes=7))
def test_exhaustive_agrees_with_fast_counters(g):
    counts = exhaustive_subgraph_counts(g)
    rep = compute_metrics(g)
    assert counts.triangles == rep.triangles
    assert counts.p2 == rep.p2
    assert counts.p3 == rep.p3
    assert counts.s13 == sum(math.comb(k, 3) for k in g.degrees())


@settings(max_examples=60)
@given(arbitrary_graphs(max_nodes=7))
def test_triangles_match_trace_route(g):
    a = adjacency_matrix(g)
    trace = np.trace(a @ a @ a)
    assert math.isclose(trace / 6.0, compute_metrics(g).triangles, abs_tol=1e-8)


def _assert_reduced_matches_dense(g):
    """Both reduced spectra equal the dense ones, with the contrasts exact."""
    reduced = twin_reduced_spectra(g)
    dense = (
        eigenvalues_symmetric(adjacency_matrix(g)),
        eigenvalues_symmetric(laplacian_matrix(g)),
    )
    for values, expected in zip(reduced, dense):
        assert values.shape == (g.n,)
        assert list(values) == sorted(values, reverse=True)
        assert np.max(np.abs(values - expected), initial=0.0) <= 1e-12 * max(g.n, 1), g
    # z - 1 contrasts per run: -1 or 0 (adjacency), d + 1 or d (Laplacian)
    contrasts = Counter(), Counter()
    for r, z, clique in zip(*_twin_runs(g)):
        d = len(g.adj[r])
        contrasts[0][-1.0 if clique else 0.0] += z - 1
        contrasts[1][float(d + clique)] += z - 1
    for values, structural in zip(reduced, contrasts):
        assert Counter(values.tolist()) >= structural, g


@settings(max_examples=300)
@given(planted_twin_graphs())
def test_twin_reduced_spectra_match_dense_on_planted_twins(g):
    _assert_reduced_matches_dense(g)


@settings(max_examples=150, deadline=None)
@given(st.one_of(lookalike_runs(), relabelled_family_graphs()))
def test_twin_reduced_spectra_match_dense_on_lookalike_and_relabelled_graphs(g):
    _assert_reduced_matches_dense(g)


@settings(max_examples=100)
@given(generalized_params())
@example(GeneralizedParams(10, [(3, 100), (5, 100), (7, 100)]))
@example(GeneralizedParams(3, [(4, 1)]))  # one satellite: K_7 is one class
def test_twin_reduced_spectra_solve_the_class_quotient_on_family_graphs(p):
    g = generalized_core_satellite(p)
    cells = p.class_count + 1 if p.satellite_total > 1 else 1
    with mock.patch.object(oracle, "eigenvalues_symmetric", wraps=eigenvalues_symmetric) as solve:
        twin_reduced_spectra(g)
    assert [call.args[0].shape for call in solve.call_args_list] == [(cells, cells)] * 2


def test_twin_reduced_spectra_match_dense_on_grid_and_samples():
    params = GRID_PARAMS + sample_generalized_params()
    assert len(params) == 145
    for p in params:
        _assert_reduced_matches_dense(generalized_core_satellite(p))


def test_twin_reduced_spectra_on_named_graphs():
    for n in range(0, 8):
        _assert_reduced_matches_dense(Graph(n, []))
        _assert_reduced_matches_dense(Graph(n, [(u, u + 1) for u in range(n - 1)]))
    for n in range(1, 8):
        _assert_reduced_matches_dense(complete_graph(n))
        _assert_reduced_matches_dense(star(n))
    # isolated nodes, K_n and a star's leaves each reduce to one run
    assert [v.tolist() for v in twin_reduced_spectra(Graph(3, []))] == [[0.0] * 3] * 2
    adjacency, laplacian = twin_reduced_spectra(complete_graph(5))
    assert adjacency.tolist() == [4.0] + [-1.0] * 4
    assert laplacian.tolist() == [5.0] * 4 + [0.0]
    adjacency, laplacian = twin_reduced_spectra(star(9))
    assert adjacency[1:9].tolist() == [0.0] * 8
    assert laplacian[1:9].tolist() == [1.0] * 8
    # the 2x2 quotient's roots: +-3 and 10, 0
    assert adjacency[[0, 9]] == pytest.approx([3.0, -3.0], abs=1e-12)
    assert laplacian[[0, 9]] == pytest.approx([10.0, 0.0], abs=1e-12)


def test_twin_reduced_spectra_guard_counts_runs():
    # 3000 isolated nodes are one class; a path of 2001 nodes is 2001,
    # one more than the dense limit, which symmetric_quotient holds for
    # both spectrum routes
    assert [v.shape for v in twin_reduced_spectra(Graph(3000, []))] == [(3000,)] * 2
    n = oracle.DEFAULT_DENSE_LIMIT + 1
    message = f"a quotient of {n} cells exceeds the dense limit {oracle.DEFAULT_DENSE_LIMIT}"
    with mock.patch.object(oracle, "eigenvalues_symmetric") as solve:
        with pytest.raises(SizeLimitError, match=message):
            twin_reduced_spectra(Graph(n, [(u, u + 1) for u in range(n - 1)]))
        with pytest.raises(SizeLimitError, match=message):
            symmetric_quotient([{}] * n)
    solve.assert_not_called()

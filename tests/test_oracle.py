from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import GRID_PARAMS, arbitrary_graphs
from coresat import (
    GeneralizedParams,
    Graph,
    SizeLimitError,
    adjacency_matrix,
    complete_graph,
    eigenvalues_symmetric,
    exhaustive_subgraph_counts,
    generalized_core_satellite,
    laplacian_matrix,
    path_counts,
    star,
    triangle_count,
)


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
    assert (vals**3).sum() == pytest.approx(6 * triangle_count(g), abs=1e-8)


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


def test_exhaustive_guard():
    with pytest.raises(SizeLimitError):
        exhaustive_subgraph_counts(complete_graph(9), max_n=8)


@settings(max_examples=60)
@given(arbitrary_graphs(max_nodes=7))
def test_exhaustive_agrees_with_fast_counters(g):
    counts = exhaustive_subgraph_counts(g)
    assert counts.triangles == triangle_count(g)
    p2, p3 = path_counts(g)
    assert counts.p2 == p2
    assert counts.p3 == p3
    assert counts.s13 == sum(math.comb(k, 3) for k in g.degrees())


@settings(max_examples=60)
@given(arbitrary_graphs(max_nodes=7))
def test_triangles_match_trace_route(g):
    a = adjacency_matrix(g)
    trace = np.trace(a @ a @ a)
    assert math.isclose(trace / 6.0, triangle_count(g), abs_tol=1e-8)

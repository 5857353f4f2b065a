from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GRID_PARAMS, bfs_distances
from coresat import (
    CoreSatelliteParams,
    GeneralizedParams,
    Graph,
    InvalidParameterError,
    agave,
    complete_graph,
    complete_split,
    core_satellite,
    disjoint_union,
    empty_graph,
    friendship,
    generalized_core_satellite,
    is_connected,
    join,
    star,
    windmill,
)
from coresat.verification import GRID, sample_generalized_params


def test_graph_basic_validation():
    g = Graph(3, [(0, 1), (2, 1)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.adj == ((1,), (0, 2), (1,))
    assert g.degrees() == (1, 2, 1)
    with pytest.raises(InvalidParameterError):
        Graph(3, [(0, 0)])
    with pytest.raises(InvalidParameterError):
        Graph(3, [(0, 3)])
    with pytest.raises(InvalidParameterError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InvalidParameterError):
        Graph(-1, [])
    # duplicates far apart in the input, in either orientation
    with pytest.raises(InvalidParameterError, match="duplicate"):
        Graph(4, [(3, 2), (0, 1), (1, 2), (2, 3)])
    with pytest.raises(InvalidParameterError, match="self-loop"):
        Graph(4, [(0, 1), (2, 2)])
    with pytest.raises(InvalidParameterError, match="out of range"):
        Graph(4, [(-1, 2)])


@settings(max_examples=60)
@given(st.data())
def test_graph_takes_pairs_in_any_order_and_stores_them_sorted(data):
    n = data.draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = data.draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    g = Graph(n, [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)])
    assert g.edges == tuple(sorted(chosen))
    assert g.m == len(chosen)
    for u, v in chosen:
        with pytest.raises(InvalidParameterError, match="duplicate"):
            Graph(n, [*chosen, (v, u)])
    rows = [[] for _ in range(n)]
    for u, v in chosen:
        rows[u].append(v)
        rows[v].append(u)
    assert g.adj == tuple(tuple(sorted(row)) for row in rows)


def _composed(params: GeneralizedParams) -> Graph:
    """The generator as a composition of the public graph operations."""
    blocks = [complete_graph(cls.size) for cls in params.classes for _ in range(cls.count)]
    return join(complete_graph(params.core), disjoint_union(blocks))


def test_generators_match_the_join_of_unions():
    for p in GRID:
        expected = _composed(p)
        g = core_satellite(p)
        assert (g.edges, g.adj) == (expected.edges, expected.adj), p
    for p in sample_generalized_params():
        expected = _composed(p)
        g = generalized_core_satellite(p)
        assert (g.edges, g.adj) == (expected.edges, expected.adj), p


def test_graph_is_immutable():
    g = complete_graph(3)
    with pytest.raises(AttributeError):
        g.n = 7


def test_complete_and_empty():
    k4 = complete_graph(4)
    assert k4.m == 6
    assert all(k == 3 for k in k4.degrees())
    e3 = empty_graph(3)
    assert e3.n == 3 and e3.m == 0
    with pytest.raises(InvalidParameterError):
        complete_graph(0)


def test_join_agave_example():
    g = join(complete_graph(2), empty_graph(3))
    assert g.n == 5
    assert g.m == 7
    assert g.edges == agave(3).edges


@settings(max_examples=60)
@given(a=st.integers(1, 5), b=st.integers(1, 5), c=st.integers(0, 4))
def test_join_edge_count(a, b, c):
    g1, g2 = complete_graph(a), empty_graph(b + c)
    joined = join(g1, g2)
    assert joined.m == g1.m + g2.m + g1.n * g2.n
    assert joined.n == g1.n + g2.n


def test_disjoint_union_blocks():
    g = disjoint_union([complete_graph(2), complete_graph(3)])
    assert g.n == 5
    assert g.edges == ((0, 1), (2, 3), (2, 4), (3, 4))


def test_butterfly_structure():
    g = core_satellite(CoreSatelliteParams(1, 2, 2))
    assert g.n == 5
    assert g.edges == ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4))


def test_special_cases_reduce():
    assert star(4).edges == core_satellite(CoreSatelliteParams(1, 1, 4)).edges
    assert windmill(3, 4).edges == core_satellite(CoreSatelliteParams(1, 4, 3)).edges
    assert friendship(5).edges == windmill(5, 2).edges
    assert agave(3).edges == complete_split(2, 3).edges
    assert complete_split(3, 2).edges == core_satellite(CoreSatelliteParams(3, 1, 2)).edges


def test_complete_split_example_counts():
    g = core_satellite(CoreSatelliteParams(3, 1, 2))
    assert g.n == 5 and g.m == 9


def test_grid_counts_and_degrees():
    for p in GRID_PARAMS:
        g = core_satellite(p)
        assert g.n == p.n
        assert g.m == p.m
        degs = set(g.degrees())
        assert degs == {p.n - 1, p.core + p.satellite_size - 1}
        assert g.degrees().count(p.n - 1) >= p.core
        assert is_connected(g)


def test_generalized_single_class_matches_core_satellite():
    for p in (CoreSatelliteParams(1, 2, 2), CoreSatelliteParams(3, 2, 4)):
        general = GeneralizedParams(p.core, [(p.satellite_size, p.satellite_count)])
        assert (p.classes, p.n, p.m) == (general.classes, general.n, general.m)
        assert general.to_core_satellite() == p
        assert core_satellite(p).edges == generalized_core_satellite(general).edges
        with pytest.raises(AttributeError):
            p.satellite_size = 5


def test_generalized_block_layout():
    p = GeneralizedParams(2, [(2, 1), (1, 1)])
    # canonicalized ascending by size: class (1,1) before (2,1)
    assert [(c.size, c.count) for c in p.classes] == [(1, 1), (2, 1)]
    g = generalized_core_satellite(p)
    assert g.n == 5 and g.m == 8
    # node 2 is the singleton satellite, nodes 3-4 the 2-clique
    assert g.adj[2] == (0, 1)
    assert g.adj[3] == (0, 1, 4)


def test_generalized_canonicalization_merges_duplicates():
    p = GeneralizedParams(1, [(3, 2), (2, 1), (3, 4)])
    assert [(c.size, c.count) for c in p.classes] == [(2, 1), (3, 6)]
    assert p.satellite_total == 7
    assert p.n == 1 + 2 + 18


def test_generalized_edge_count_formula():
    for p in (
        GeneralizedParams(2, [(1, 1), (2, 1)]),
        GeneralizedParams(3, [(3, 2), (5, 1), (7, 3)]),
    ):
        g = generalized_core_satellite(p)
        assert g.m == p.m
        assert g.n == p.n


def test_parameter_validation():
    with pytest.raises(InvalidParameterError):
        CoreSatelliteParams(0, 1, 1)
    with pytest.raises(InvalidParameterError):
        CoreSatelliteParams(1, 0, 1)
    with pytest.raises(InvalidParameterError):
        CoreSatelliteParams(1, 1, 0)
    with pytest.raises(InvalidParameterError):
        GeneralizedParams(1, [])
    with pytest.raises(InvalidParameterError):
        GeneralizedParams(1, [(1, 0)])
    with pytest.raises(InvalidParameterError):
        GeneralizedParams(2, [(1, 1), (2, 1)]).to_core_satellite()


def test_diameter_two_with_multiple_satellites():
    cases = [
        CoreSatelliteParams(1, 2, 2),
        CoreSatelliteParams(2, 3, 2),
        CoreSatelliteParams(5, 1, 6),
        CoreSatelliteParams(1, 1, 5),
    ]
    for p in cases:
        g = core_satellite(p)
        ecc = max(max(bfs_distances(g, u)) for u in range(g.n))
        assert ecc == 2, p


def test_satellite_count_one_gives_complete_graph():
    g = core_satellite(CoreSatelliteParams(2, 3, 1))
    assert g.m == math.comb(5, 2)

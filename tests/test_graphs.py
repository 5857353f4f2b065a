from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GRID_PARAMS, bfs_distances, generalized_params
from coresat import (
    GeneralizedParams,
    Graph,
    InvalidParameterError,
    SatelliteClass,
    agave,
    complete_split,
    friendship,
    generalized_core_satellite,
    spectra,
    star,
    windmill,
)
from coresat.graphs import (
    complete_graph,
    disjoint_union,
    empty_graph,
    is_connected,
    join,
    twin_classes,
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
    # endpoints are ints, not bools or numpy ints, and an edge is a pair
    for edge, message in [
        ((True, 2), "must be ints"),
        ((np.int64(0), np.int64(70)), "must be ints"),
        ((0.5, 1), "must be ints"),
        (("0", 1), "must be ints"),
        ((0, 1, 2), "pair of nodes"),
    ]:
        with pytest.raises(InvalidParameterError, match=message):
            Graph(100, [(3, 4), edge])


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


_DRAWN_PARAMS = st.builds(
    GeneralizedParams,
    st.integers(1, 6),
    st.lists(st.tuples(st.integers(1, 6), st.integers(1, 5)), min_size=1, max_size=4),
)


def test_generators_match_the_join_of_unions():
    def check(p: GeneralizedParams, g: Graph) -> None:
        expected = _composed(p)
        assert (g.edges, g.adj) == (expected.edges, expected.adj), p
        # the rows also survive a round trip through the validating constructor
        assert Graph(g.n, g.edges).adj == g.adj, p
        assert g.m == p.m, p

    for p in (*GRID, *sample_generalized_params(), GeneralizedParams(1, [(1, 1)])):
        check(p, generalized_core_satellite(p))
    for p, g in [
        (GeneralizedParams(1, [(1, 7)]), star(7)),
        (GeneralizedParams(1, [(4, 3)]), windmill(3, 4)),
        (GeneralizedParams(1, [(2, 5)]), friendship(5)),
        (GeneralizedParams(2, [(1, 6)]), agave(6)),
        (GeneralizedParams(4, [(1, 3)]), complete_split(4, 3)),
    ]:
        check(p, g)

    @settings(max_examples=100, deadline=None)
    @given(_DRAWN_PARAMS)
    def drawn(p):
        check(p, generalized_core_satellite(p))

    drawn()


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
    g = generalized_core_satellite(GeneralizedParams(1, [(2, 2)]))
    assert g.n == 5
    assert g.edges == ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4))


def test_special_cases_reduce():
    def one_class(c, s, eta):
        return generalized_core_satellite(GeneralizedParams(c, [(s, eta)])).edges

    assert star(4).edges == one_class(1, 1, 4)
    assert windmill(3, 4).edges == one_class(1, 4, 3)
    assert friendship(5).edges == windmill(5, 2).edges
    assert agave(3).edges == complete_split(2, 3).edges
    assert complete_split(3, 2).edges == one_class(3, 1, 2)


def test_complete_split_example_counts():
    g = generalized_core_satellite(GeneralizedParams(3, [(1, 2)]))
    assert g.n == 5 and g.m == 9


def test_grid_counts_and_degrees():
    for p in GRID_PARAMS:
        g = generalized_core_satellite(p)
        assert g.n == p.n
        assert g.m == p.m
        degs = set(g.degrees())
        assert degs == {p.n - 1, p.core + p.classes[0].size - 1}
        assert g.degrees().count(p.n - 1) >= p.core
        assert is_connected(g)


@pytest.mark.parametrize(
    "g",
    [
        Graph(2, []),
        Graph(3, [(0, 1)]),
        Graph(3, [(1, 2)]),
        disjoint_union([complete_graph(3), complete_graph(3)]),
    ],
    ids=["two-isolated", "edge-and-isolated", "isolated-start", "two-triangles"],
)
def test_a_disconnected_graph_is_not_connected(g):
    assert not is_connected(g)


@pytest.mark.parametrize(
    "g",
    [Graph(0, []), Graph(1, []), Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])],
    ids=["empty", "one-node", "path"],
)
def test_a_connected_graph_is_connected(g):
    assert is_connected(g)


def test_one_class_params_are_equal_however_built():
    # one graph, one value: equal parameters must also hash alike
    ways = [
        GeneralizedParams(3, [(3, 4)]),
        GeneralizedParams(3, [(3, 1), (3, 3)]),
        GeneralizedParams(3, [SatelliteClass(3, 4)]),
        GeneralizedParams(3, [SatelliteClass(3, 1), (3, 3)]),
        GeneralizedParams(3, [(3, 4)]).to_core_satellite(),
    ]
    assert all(p == ways[0] for p in ways)
    assert len(set(ways)) == 1
    assert len({generalized_core_satellite(p).edges for p in ways}) == 1
    with pytest.raises(AttributeError):
        ways[0].core = 5
    with pytest.raises(InvalidParameterError):
        GeneralizedParams(2, [(1, 1), (2, 1)]).to_core_satellite()


def test_generalized_block_layout():
    p = GeneralizedParams(2, [(2, 1), (1, 1)])
    # canonicalized ascending by size: class (1,1) before (2,1)
    assert [(c.size, c.count) for c in p.classes] == [(1, 1), (2, 1)]
    g = generalized_core_satellite(p)
    assert g.n == 5 and g.m == 8
    # node 2 is the singleton satellite, nodes 3-4 the 2-clique
    assert g.adj[2] == (0, 1)
    assert g.adj[3] == (0, 1, 4)


@pytest.mark.parametrize(
    "g, core, leaves",
    [
        (star(1000), 1, 1000),
        (generalized_core_satellite(GeneralizedParams(3, [(1, 50), (4, 2)])), 3, 50),
    ],
    ids=["star-1000", "core-3-with-cliques"],
)
def test_one_node_satellites_share_one_row_object(g, core, leaves):
    # a tuple per leaf would cost the star at the node limit a row each
    rows = g.adj[core : core + leaves]
    assert rows[0] == tuple(range(core))
    assert all(row is rows[0] for row in rows)


@pytest.mark.parametrize(
    "p",
    [GeneralizedParams(3, [(3, 200), (5, 100)]), GeneralizedParams(3, [(3, 1)])],
    ids=["1103-nodes", "6-nodes"],
)
def test_generated_rows_share_one_int_object_per_node(p):
    # the rows hold the node tuple's own ints; ints above 256 made afresh
    # for each row would cost a large graph one object per entry
    g = generalized_core_satellite(p)
    assert len({id(v) for row in g.adj for v in row}) == g.n


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
        GeneralizedParams(0, [(1, 1)])
    with pytest.raises(InvalidParameterError):
        GeneralizedParams(1, [(0, 1)])
    with pytest.raises(InvalidParameterError):
        GeneralizedParams(1, [(1, 0)])
    with pytest.raises(InvalidParameterError):
        GeneralizedParams(1, [])
    for classes in ([5], [(1, 2, 3)], [(1,)], "ab", None, 7, {3: 2}, [(2, 2), 5]):
        with pytest.raises(InvalidParameterError, match=r"a satellite class is a \(size, count\) pair"):
            GeneralizedParams(1, classes)
    # a pair of non-ints is a pair, refused by its fields
    with pytest.raises(InvalidParameterError, match="size must be an int"):
        GeneralizedParams(1, ["ab"])


def test_diameter_two_with_multiple_satellites():
    cases = [
        GeneralizedParams(1, [(2, 2)]),
        GeneralizedParams(2, [(3, 2)]),
        GeneralizedParams(5, [(1, 6)]),
        GeneralizedParams(1, [(1, 5)]),
    ]
    for p in cases:
        g = generalized_core_satellite(p)
        ecc = max(max(bfs_distances(g, u)) for u in range(g.n))
        assert ecc == 2, p


def test_satellite_count_one_gives_complete_graph():
    g = generalized_core_satellite(GeneralizedParams(2, [(3, 1)]))
    assert g.m == math.comb(5, 2)


def _assert_papers_quotient(p):
    """``twin_classes`` of the graph of ``p`` gives the paper's divisor matrix B exactly.

    B00 = c - 1, B0i = eta_i * s_i, Bi0 = c and Bii = s_i - 1 over the
    partition {core, class 1, ..., class t}, with no zero entry stored.
    One satellite gives K_n, a single clique run.  Exact integers read
    from the graph's rows, at any size and with no eigensolve.  With two
    satellites or more, ``spectra.quotient`` builds the same B from the
    parameters; the hand-written B below is the reference for both.
    """
    _, sizes, counts, quotient = twin_classes(generalized_core_satellite(p))
    quotient = list(map(dict, quotient))
    if p.satellite_total == 1:
        assert (sizes, counts, quotient) == ([p.n], [1], [{0: p.n - 1}])
        return
    c = p.core
    core = {0: c - 1} if c > 1 else {}
    core.update((i, cls.count * cls.size) for i, cls in enumerate(p.classes, 1))
    rows = [{0: c, i: cls.size - 1} for i, cls in enumerate(p.classes, 1)]
    assert quotient == [core] + [{j: x for j, x in row.items() if x} for row in rows]
    assert spectra.quotient(p) == quotient
    nodes = [c] + [cls.count * cls.size for cls in p.classes]
    assert [z * k for z, k in zip(sizes, counts)] == nodes


@settings(max_examples=200, deadline=None)
@given(generalized_params())
@example(GeneralizedParams(1, [(1, 3), (2, 2)]))  # c = 1: a hub of one node, leaves in one run
@example(GeneralizedParams(4, [(1, 1), (3, 1)]))  # a class of one leaf
@example(GeneralizedParams(1, [(1, 1)]))  # K_2
@example(GeneralizedParams(10, [(3, 100), (5, 100), (7, 100)]))
@example(GeneralizedParams(1, [(2, 25000)]))
def test_twin_classes_give_the_papers_integer_quotient(p):
    _assert_papers_quotient(p)


def test_twin_classes_give_the_papers_quotient_on_every_grid_point():
    for p in GRID:
        _assert_papers_quotient(p)

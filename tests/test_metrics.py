from __future__ import annotations

import dataclasses
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    GRID_PARAMS,
    arbitrary_graphs,
    generalized_params,
    labelled_graphs,
    lookalike_runs,
    planted_twin_graphs,
    relabel,
    relabelled_family_graphs,
)
from coresat import (
    GeneralizedParams,
    Graph,
    InvalidParameterError,
    SizeLimitError,
    analytic_metrics,
    complete_graph,
    compute_metrics,
    generalized_core_satellite,
    star,
)
from coresat import metrics as metrics_mod
from coresat.graphs import _twin_runs, twin_classes
from coresat.metrics import (
    DIRECT_BITSET_LIMIT,
    _SHIFT_ROW_LIMIT,
    MetricsReport,
    _average_clustering_fraction,
    _bitset,
    _core_triangles,
)
from coresat.oracle import exhaustive_subgraph_counts, local_clustering

BUTTERFLY = generalized_core_satellite(GeneralizedParams(1, [(2, 2)]))


def test_butterfly_direct_golden_values():
    rep = compute_metrics(BUTTERFLY)
    assert (rep.n, rep.m, rep.triangles) == (5, 6, 2)
    assert (rep.p1, rep.p2, rep.p3, rep.s13) == (6, 10, 8, 4)
    assert rep.avg_clustering == 13 / 15
    assert rep.transitivity == 0.6
    assert rep.assortativity == -0.5
    assert rep.assortativity_estrada == -0.5


def test_butterfly_analytic_matches():
    rep = analytic_metrics(GeneralizedParams(1, [(2, 2)]))
    assert (rep.m, rep.triangles, rep.p2, rep.p3, rep.s13) == (6, 2, 10, 8, 4)
    assert rep.avg_clustering == 13 / 15
    assert rep.transitivity == 0.6
    assert rep.assortativity == -0.5


def test_local_clustering_conventions():
    assert local_clustering(BUTTERFLY, 0) == pytest.approx(1 / 3)
    assert local_clustering(BUTTERFLY, 1) == 1.0
    leafy = star(3)
    assert local_clustering(leafy, 1) == 0.0  # degree 1
    assert local_clustering(Graph(2, [(0, 1)]), 0) == 0.0
    assert local_clustering(Graph(1, []), 0) == 0.0
    for u in (-1, 5, 12, True, 1.0, "1", None):
        with pytest.raises(InvalidParameterError, match=f"no node {u!r} in a graph of 5 nodes"):
            local_clustering(BUTTERFLY, u)
        with pytest.raises(InvalidParameterError, match=f"no node {u!r} in a graph of 5 nodes"):
            BUTTERFLY.degree(u)
    with pytest.raises(InvalidParameterError):
        local_clustering(Graph(0, []), 0)


def test_core_clustering_closed_form_examples():
    # the core triangles over C(n - 1, 2) pairs, against node 0 of the graph
    for p, expected in (
        (GeneralizedParams(1, [(2, 2)]), 1 / 3),
        (GeneralizedParams(3, [(1, 2)]), 5 / 6),
        (GeneralizedParams(1, [(1, 1)]), 0.0),  # n = 2: degree-1 convention value
    ):
        pairs = math.comb(p.n - 1, 2)
        closed = _core_triangles(p) / pairs if pairs else 0.0
        assert closed == pytest.approx(expected), p
        assert local_clustering(generalized_core_satellite(p), 0) == pytest.approx(expected), p


def test_star_metrics():
    rep = compute_metrics(star(4))
    assert rep.avg_clustering == 0.0
    assert rep.transitivity == 0.0
    assert rep.assortativity == pytest.approx(-1.0)
    assert rep.assortativity_estrada == pytest.approx(-1.0)
    # closed forms agree with the convention for degree-1 satellites
    rep = analytic_metrics(GeneralizedParams(1, [(1, 4)]))
    assert rep.avg_clustering == 0.0
    assert rep.transitivity == 0.0
    assert rep.assortativity == pytest.approx(-1.0)


def test_complete_graph_metrics():
    rep = compute_metrics(complete_graph(5))
    assert rep.avg_clustering == 1.0
    assert rep.transitivity == pytest.approx(1.0)
    assert rep.assortativity is None
    assert rep.assortativity_estrada is None
    rep = analytic_metrics(GeneralizedParams(2, [(3, 1)]))
    assert rep.avg_clustering == 1.0
    assert rep.transitivity == pytest.approx(1.0)
    assert rep.assortativity is None


def test_cycle_assortativity_undefined():
    rep = compute_metrics(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]))
    assert rep.assortativity is None
    assert rep.assortativity_estrada is None


def test_path_graph_counts():
    rep = compute_metrics(Graph(4, [(0, 1), (1, 2), (2, 3)]))
    assert (rep.p2, rep.p3) == (2, 1)
    assert rep.triangles == 0
    assert rep.assortativity == pytest.approx(-0.5)
    assert rep.assortativity_estrada == pytest.approx(-0.5)


def test_complete_split_triangle_count():
    rep = compute_metrics(generalized_core_satellite(GeneralizedParams(3, [(1, 2)])))
    assert rep.m == 9
    assert rep.triangles == 7


def test_closed_forms_match_direct_on_grid():
    for p in GRID_PARAMS:
        direct = compute_metrics(generalized_core_satellite(p))
        assert direct == analytic_metrics(p), p
        assert direct.assortativity is not None, p


_COUNT_FIELDS = ("n", "m", "triangles", "p1", "p2", "p3", "s13")


@settings(max_examples=150)
@given(generalized_params())
@example(GeneralizedParams(1, [(1, 1)]))  # n = 2, a single edge
@example(GeneralizedParams(1, [(1, 2)]))  # the path on 3 nodes
@example(GeneralizedParams(2, [(1, 1)]))  # a triangle
@example(GeneralizedParams(3, [(4, 1)]))  # one satellite: complete
@example(GeneralizedParams(1, [(1, 3), (2, 1)]))
def test_generalized_closed_forms_match_direct_enumeration_and_exact_ratios(p):
    g = generalized_core_satellite(p)
    closed = analytic_metrics(p)
    direct = compute_metrics(g)
    assert direct == closed
    counts = [getattr(closed, f) for f in _COUNT_FIELDS]
    if p.n <= 9:
        enum = exhaustive_subgraph_counts(g)
        assert counts[2:] == [enum.triangles, g.m, enum.p2, enum.p3, enum.s13]

    avg, r = _exact_ratios(g)
    assert _average_clustering_fraction(p) == avg
    trans = Fraction(3 * closed.triangles, closed.p2) if closed.p2 else 0
    assert closed.avg_clustering == float(avg)
    assert closed.transitivity == float(trans)
    if r is None:
        assert closed.assortativity is None and closed.assortativity_estrada is None
    else:
        assert closed.assortativity == float(r)
        assert closed.assortativity_estrada == float(r)

    faulted = analytic_metrics(p, triangle_sign_fault=True)
    if p.satellite_total >= 2:
        assert faulted.triangles != closed.triangles


def test_reports_are_equal_only_when_every_count_and_ratio_is():
    rep = compute_metrics(BUTTERFLY)
    assert rep == dataclasses.replace(rep)
    assert rep == analytic_metrics(GeneralizedParams(1, [(2, 2)]))
    for field in _COUNT_FIELDS:
        assert rep != dataclasses.replace(rep, **{field: getattr(rep, field) + 1}), field
    for field in ("avg_clustering", "transitivity", "assortativity", "assortativity_estrada"):
        value = getattr(rep, field)
        assert rep != dataclasses.replace(rep, **{field: math.nextafter(value, math.inf)}), field
        assert rep != dataclasses.replace(rep, **{field: None}), field


def test_assortativity_negative_on_grid():
    for p in GRID_PARAMS:
        r = compute_metrics(generalized_core_satellite(p)).assortativity
        assert r is not None and r < 0, p


def test_naive_average_clustering_variant_rejected():
    # a tempting closed form squares the satellite count instead of using
    # count*(count-1); it disagrees with the direct value on the butterfly
    c, s, eta = 1, 2, 2
    n = c + eta * s
    naive = 1 - Fraction(c * s * s * eta * eta, n * (n - 1) * (n - 2))
    assert naive == Fraction(11, 15)
    direct = compute_metrics(BUTTERFLY).avg_clustering
    assert direct == 13 / 15
    assert abs(float(naive) - direct) > 0.1


def test_corrected_average_clustering_identity():
    # for c+s >= 3 the gated form equals 1 - c*eta*s^2*(eta-1)/(n(n-1)(n-2))
    for p in GRID_PARAMS:
        c, s, eta = p.core, p.classes[0].size, p.classes[0].count
        if c + s < 3:
            continue
        n = p.n
        closed = 1 - Fraction(c * eta * s * s * (eta - 1), n * (n - 1) * (n - 2))
        assert analytic_metrics(p).avg_clustering == pytest.approx(
            float(closed), abs=1e-15
        ), p


def test_triangle_sign_fault_changes_counts():
    p = GeneralizedParams(3, [(1, 2)])
    good = analytic_metrics(p)
    bad = analytic_metrics(p, triangle_sign_fault=True)
    assert good.triangles == 7
    # S = Q = 2: t_core = C(4, 2) - (S**2 - Q)/2 = 5, faulted 5 - Q = 3
    assert bad.triangles == (3 * 3 + 2 * math.comb(3, 2)) // 3 == 5
    assert bad.avg_clustering != good.avg_clustering
    # visible on a core with no triangles of its own too
    small = GeneralizedParams(1, [(2, 2)])
    assert analytic_metrics(small).triangles == 2
    assert analytic_metrics(small, triangle_sign_fault=True).triangles == -1


def test_divergence_endpoints_closed_forms():
    rep = analytic_metrics(GeneralizedParams(2, [(3, 1000)]))
    assert rep.avg_clustering > 0.999
    assert rep.transitivity < 0.01


def test_transitivity_strictly_decreasing_in_count():
    for c, s in ((1, 2), (2, 3), (3, 1), (5, 5)):
        prev = None
        for eta in range(2, 101):
            t = analytic_metrics(GeneralizedParams(c, [(s, eta)])).transitivity
            if prev is not None:
                assert t < prev, (c, s, eta)
            prev = t


def test_avg_clustering_increases_for_single_core():
    # hub families rise monotonically; wider cores dip first (see the
    # companion regression below)
    for s in (2, 3, 5):
        prev = None
        for eta in range(2, 101):
            value = analytic_metrics(GeneralizedParams(1, [(s, eta)])).avg_clustering
            if prev is not None:
                assert value > prev, (s, eta)
            prev = value


def test_avg_clustering_dip_for_wider_core():
    # true behavior of the corrected closed form: a strict dip at the
    # start for c=2, s=3, matching direct computation exactly
    values = {
        eta: analytic_metrics(GeneralizedParams(2, [(3, eta)])).avg_clustering
        for eta in (2, 3, 4)
    }
    direct3 = compute_metrics(
        generalized_core_satellite(GeneralizedParams(2, [(3, 3)]))
    ).avg_clustering
    assert values[3] == direct3
    assert values[2] > values[3] < values[4]
    assert values[2] == pytest.approx(25 / 28, abs=1e-15)
    assert values[3] == pytest.approx(49 / 55, abs=1e-15)


@settings(max_examples=120)
@given(arbitrary_graphs())
def test_transitivity_identity(g):
    rep = compute_metrics(g)
    if rep.p2 == 0:
        assert rep.transitivity == 0.0
    else:
        assert rep.transitivity == 3 * rep.triangles / rep.p2


@settings(max_examples=120)
@given(arbitrary_graphs())
def test_assortativity_routes_agree(g):
    rep = compute_metrics(g)
    r_edges, r_counts = rep.assortativity, rep.assortativity_estrada
    assert (r_edges is None) == (r_counts is None)
    if r_edges is not None:
        assert r_edges == r_counts
        assert -1.0 <= r_edges <= 1.0


@settings(max_examples=120)
@given(arbitrary_graphs())
def test_clustering_bounds(g):
    rep = compute_metrics(g)
    assert 0.0 <= rep.avg_clustering <= 1.0
    assert 0.0 <= rep.transitivity <= 1.0 + 1e-15
    for u in range(g.n):
        assert 0.0 <= local_clustering(g, u) <= 1.0


@settings(max_examples=80)
@given(arbitrary_graphs(max_nodes=7))
def test_star_triplet_is_degree_sum(g):
    assert compute_metrics(g).s13 == sum(math.comb(k, 3) for k in g.degrees())


@st.composite
def regular_graphs(draw, max_nodes: int = 9):
    """Circulant graphs: every node has the same degree."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    jumps = draw(st.sets(st.integers(1, n // 2))) if n >= 3 else set()
    edges = {tuple(sorted((u, (u + j) % n))) for u in range(n) for j in jumps}
    return Graph(n, edges)


def _threshold_graph(n):
    """Each odd node joins every node before it: n - 1 distinct degrees."""
    return Graph(n, [(u, v) for v in range(1, n, 2) for u in range(v)])


def _exact_ratios(g):
    """(avg clustering, assortativity) as exact Fractions."""
    nbrs = [set(row) for row in g.adj]
    deg = [len(row) for row in g.adj]
    avg = Fraction(0)
    for u, k in enumerate(deg):
        if k >= 2:
            links = sum(w in nbrs[v] for v, w in itertools.combinations(g.adj[u], 2))
            avg += Fraction(links, math.comb(k, 2))
    if g.n:
        avg /= g.n
    r = None
    if g.m:
        # Newman's edge-degree Pearson correlation, term by term
        m = g.m
        joint = Fraction(sum(deg[u] * deg[v] for u, v in g.edges), m)
        mean = Fraction(sum(deg[u] + deg[v] for u, v in g.edges), 2 * m)
        square = Fraction(sum(deg[u] ** 2 + deg[v] ** 2 for u, v in g.edges), 2 * m)
        if square != mean**2:
            r = (joint - mean**2) / (square - mean**2)
    return avg, r


@settings(max_examples=200)
@given(
    st.one_of(
        st.just(Graph(0, [])),
        arbitrary_graphs(max_nodes=9),
        regular_graphs(),
    )
)
@example(_threshold_graph(9))
def test_one_pass_kernel_matches_enumeration_and_exact_ratios(g):
    rep = compute_metrics(g)
    counts = exhaustive_subgraph_counts(g)
    assert (rep.n, rep.m, rep.p1) == (g.n, g.m, g.m)
    assert (rep.triangles, rep.p2, rep.p3, rep.s13) == (
        counts.triangles,
        counts.p2,
        counts.p3,
        counts.s13,
    )

    avg, r = _exact_ratios(g)
    trans = Fraction(3 * counts.triangles, counts.p2) if counts.p2 else 0
    assert rep.avg_clustering == float(avg)
    assert rep.transitivity == float(trans)
    if r is None:
        assert rep.assortativity is None and rep.assortativity_estrada is None
    else:
        assert rep.assortativity == float(r)
        assert rep.assortativity_estrada == float(r)


# both routes round the average clustering by one int division, where
# they summed ``Fraction`` terms; int / int rounds correctly, so the
# float is the exact rational's, bit for bit (hex tells -0.0 from 0.0)
_HUGE = st.integers(1, 10**30)


@settings(max_examples=300)
@given(
    core=_HUGE,
    classes=st.lists(st.tuples(_HUGE, _HUGE), min_size=1, max_size=4),
    fault=st.booleans(),
)
@example(core=1, classes=[(1, 1)], fault=False)  # n = 2: no pair of neighbors anywhere
@example(core=10**30, classes=[(10**30, 10**30), (1, 1)], fault=True)
def test_closed_form_avg_clustering_is_the_exact_rational_rounded_once(core, classes, fault):
    p = GeneralizedParams(core, classes)
    rep = analytic_metrics(p, triangle_sign_fault=fault)
    exact = _average_clustering_fraction(p, triangle_sign_fault=fault)
    assert rep.avg_clustering.hex() == float(exact).hex()


@settings(max_examples=300)
@given(st.one_of(st.just(Graph(0, [])), arbitrary_graphs(max_nodes=14)))
@example(_threshold_graph(14))  # 13 distinct degrees: many C(k, 2) to a common denominator
# a triangle with a two-edge tail: nodes 0 and 1 and node 3 have degree
# 2, but only 0 and 1 lie on a triangle
@example(Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]))
def test_direct_avg_clustering_is_the_exact_rational_rounded_once(g):
    avg, _ = _exact_ratios(g)
    assert compute_metrics(g).avg_clustering.hex() == float(avg).hex()


def test_kernel_limit_counts_the_bits_it_allocates():
    # only the first node of each class of twins gets a bitset row: a
    # star on 2**15 + 1 nodes is two classes whether its hub is first or last
    n = 2**15 + 1
    hub_first = Graph(n, [(0, v) for v in range(1, n)])
    hub_last = Graph(n, [(u, n - 1) for u in range(n - 1)])
    rep = compute_metrics(hub_first)
    assert (rep.triangles, rep.p2, rep.p3, rep.avg_clustering) == (0, math.comb(n - 1, 2), 0, 0.0)
    assert rep.assortativity == pytest.approx(-1.0, abs=1e-12)
    assert compute_metrics(hub_last) == rep
    # a path through the leaves leaves no twins: n - 1 leaf rows of n
    # bits and a hub row of n - 1 bits
    fan = Graph(n, [(u, n - 1) for u in range(n - 1)] + [(u, u + 1) for u in range(n - 2)])
    assert len(twin_classes(fan)[0]) == n
    size = (n - 1) * (n + 1)
    assert size > DIRECT_BITSET_LIMIT
    with pytest.raises(SizeLimitError, match=f"{size} bits"):
        compute_metrics(fan)
    # 25000 satellite pairs: two classes, so two rows
    pairs = generalized_core_satellite(GeneralizedParams(1, [(2, 25000)]))
    assert compute_metrics(pairs).triangles == 25000
    # nodes without edges take no bits at all
    assert compute_metrics(Graph(10**5, [])).avg_clustering == 0.0


@st.composite
def dense_graphs(draw):
    """Graphs of 18 to 40 nodes, dense enough for rows over 16 neighbors."""
    n = draw(st.integers(min_value=18, max_value=40))
    density = draw(st.sampled_from([0.5, 0.8, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    pairs = itertools.combinations(range(n), 2)
    return Graph(n, [pair for pair in pairs if rng.random() < density])


def test_bitset_rows_on_both_sides_of_the_digit_string_switch():
    for width in range(40):
        row = list(range(3, 3 + 2 * width, 2))
        assert _bitset(row) == sum(1 << v for v in row)


@settings(max_examples=20)
@given(dense_graphs())
@example(_threshold_graph(40))
def test_kernel_on_wide_rows_matches_set_counts_and_exact_ratios(g):
    nbrs = [set(row) for row in g.adj]
    deg = [len(row) for row in g.adj]
    tri = sum(len(nbrs[u] & nbrs[v]) for u, v in g.edges) // 3
    p3 = sum((deg[u] - 1) * (deg[v] - 1) for u, v in g.edges) - 3 * tri
    rep = compute_metrics(g)
    assert (rep.triangles, rep.p3) == (tri, p3)
    avg, r = _exact_ratios(g)
    assert rep.avg_clustering == float(avg)
    if r is None:
        assert rep.assortativity is None
    else:
        assert rep.assortativity == float(r)


def _assert_runs_by_brute_force(g):
    """``_twin_runs(g)`` are the maximal runs of consecutive twins.

    They are found here from neighbor sets: true twins (equal closed
    sets) in a clique run, false twins (equal open sets) in an
    independent one.
    """
    nbrs = tuple(map(frozenset, g.adj))
    closed = [row | {u} for u, row in enumerate(nbrs)]
    starts = [
        v
        for v in range(g.n)
        if v == 0 or (closed[v] != closed[v - 1] and nbrs[v] != nbrs[v - 1])
    ]
    sizes = [b - a for a, b in zip(starts, starts[1:] + [g.n])]
    cliques = [z > 1 and closed[r] == closed[r + 1] for r, z in zip(starts, sizes)]
    assert _twin_runs(g) == (starts, sizes, cliques)
    for r, z, clique in zip(starts, sizes, cliques):
        links = sum(v in nbrs[u] for u, v in itertools.combinations(range(r, r + z), 2))
        assert links == (math.comb(z, 2) if clique else 0)


@settings(max_examples=300)
@given(planted_twin_graphs())
def test_kernel_on_planted_twins_matches_counts_and_exact_ratios(g):
    _assert_runs_by_brute_force(g)
    rep = compute_metrics(g)
    deg = [len(row) for row in g.adj]
    if g.n <= 9:
        counts = exhaustive_subgraph_counts(g)
        tri, p3 = counts.triangles, counts.p3
        assert (rep.p2, rep.s13) == (counts.p2, counts.s13)
    else:
        nbrs = [set(row) for row in g.adj]
        tri = sum(len(nbrs[u] & nbrs[v]) for u, v in g.edges) // 3
        p3 = sum((deg[u] - 1) * (deg[v] - 1) for u, v in g.edges) - 3 * tri
        assert rep.p2 == sum(math.comb(k, 2) for k in deg)
        assert rep.s13 == sum(math.comb(k, 3) for k in deg)
    assert (rep.n, rep.m, rep.triangles, rep.p3) == (g.n, g.m, tri, p3)

    avg, r = _exact_ratios(g)
    trans = Fraction(3 * tri, rep.p2) if rep.p2 else 0
    assert rep.avg_clustering == float(avg)
    assert rep.transitivity == float(trans)
    if r is None:
        assert rep.assortativity is None and rep.assortativity_estrada is None
    else:
        assert rep.assortativity == float(r)
        assert rep.assortativity_estrada == float(r)


def _independent_report(g):
    """The report of ``g`` from listed subgraphs and set-based degree sums."""
    counts = exhaustive_subgraph_counts(g)
    avg, r = _exact_ratios(g)
    trans = Fraction(3 * counts.triangles, counts.p2) if counts.p2 else 0
    r = None if r is None else float(r)
    return MetricsReport(
        n=g.n,
        m=g.m,
        triangles=counts.triangles,
        p1=g.m,
        p2=counts.p2,
        p3=counts.p3,
        s13=counts.s13,
        avg_clustering=float(avg),
        transitivity=float(trans),
        assortativity=r,
        assortativity_estrada=r,
    )


def test_runs_and_kernel_on_every_graph_of_five_nodes_or_fewer():
    # 1 + 1 + 2 + 8 + 64 + 1024 graphs
    graphs = list(labelled_graphs(5))
    assert len(graphs) == 1100
    for g in graphs:
        _assert_runs_by_brute_force(g)
        assert compute_metrics(g) == _independent_report(g)


@st.composite
def twin_free_wide_graphs(draw):
    """Graphs of 18 to 22 nodes without twins, most rows over the shift limit."""
    n = draw(st.integers(min_value=18, max_value=22))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    g = Graph(n, [pair for pair in itertools.combinations(range(n), 2) if rng.random() < 0.8])
    assume(len(_twin_runs(g)[0]) == n and max(map(len, g.adj)) > _SHIFT_ROW_LIMIT)
    return g


def test_lookalike_runs_differ_only_in_the_runs_next_to_them():
    # clique runs {0, 1} and {2, 3}: the same size and kind, but only the
    # first is next to node 5, so they are two classes
    g = Graph(6, [(0, 1), (2, 3), (0, 4), (1, 4), (0, 5), (1, 5), (2, 4), (3, 4)])
    assert _twin_runs(g) == ([0, 2, 4, 5], [2, 2, 1, 1], [True, True, False, False])
    # B's rows name the runs next to each: {4, 5} next to {0, 1}, only 4 next to {2, 3}
    assert twin_classes(g) == (
        [0, 2, 4, 5],
        [2, 2, 1, 1],
        [1, 1, 1, 1],
        [{0: 1, 2: 1, 3: 1}, {1: 1, 2: 1}, {0: 2, 1: 2}, {0: 2}],
    )
    assert compute_metrics(g) == _independent_report(g)


@settings(max_examples=150, deadline=None)
@given(st.one_of(lookalike_runs(), twin_free_wide_graphs()))
@example(_threshold_graph(22))
@example(relabel(star(7), [3, 0, 7, 1, 5, 2, 6, 4]))  # leaves in runs of 3 and 4 around the hub
def test_kernel_classes_match_enumeration_and_set_sums(g):
    rep = compute_metrics(g)
    assert rep == _independent_report(g)
    _assert_classes_by_node_sets(g)


def _assert_classes_by_node_sets(g):
    """``twin_classes(g)`` are the classes of runs found from node sets.

    A run's class is its size, its kind and the nodes next to it outside
    the run, which must form whole runs.  Each class must be an
    equitable cell whose B row counts every neighbor of each of its
    nodes, and no two runs of a class may be adjacent.
    """
    firsts, sizes, counts, quotient = twin_classes(g)
    run_of, keys = {}, []
    for r, z, clique in zip(*_twin_runs(g)):
        run = range(r, r + z)
        run_of.update(dict.fromkeys(run, r))
        keys.append((r, (z, clique, frozenset(g.adj[r]) - set(run))))
    for _, (_, _, outside) in keys:
        # the nodes next to a run, outside it, form whole runs
        near = {run_of[v] for v in outside}
        assert outside == {v for v in range(g.n) if run_of[v] in near}
    classes = list(dict.fromkeys(key for _, key in keys))
    assert [next(r for r, key in keys if key == c) for c in classes] == firsts
    assert [z for z, _, _ in classes] == sizes
    assert [sum(key == c for _, key in keys) for c in classes] == counts
    class_of = {u: classes.index(key) for r, key in keys for u in range(r, r + key[0])}
    assert sum(map(mul, counts, sizes)) == g.n
    for i, (z, clique, _) in enumerate(classes):
        # B_ii holds a clique run's mates; nothing is stored for an independent run
        if clique:
            assert quotient[i][i] == z - 1 > 0
        else:
            assert i not in quotient[i]
    for u in range(g.n):
        i = class_of[u]
        # B counts every neighbor of u, its own run's mates included, and
        # stores no zero entry
        assert dict(Counter(class_of[v] for v in g.adj[u])) == dict(quotient[i])
        # no other run of u's class is next to u
        assert all(run_of[v] == run_of[u] for v in g.adj[u] if class_of[v] == i)


def _every_labelled_graph(test):
    """``test`` with every graph of at most five nodes as an explicit example."""
    for g in labelled_graphs(5):
        test = example(g)(test)
    return test


@_every_labelled_graph
@settings(max_examples=150, deadline=None)
@given(st.one_of(lookalike_runs(), relabelled_family_graphs()))
def test_twin_classes_are_equitable_cells_of_runs_apart(g):
    _assert_classes_by_node_sets(g)


def test_kernel_builds_one_bitset_row_per_class(monkeypatch):
    rows = []

    def counted(row):
        rows.append(row)
        return _bitset(row)

    monkeypatch.setattr(metrics_mod, "_bitset", counted)
    g = generalized_core_satellite(SWEEP_LARGEST)
    assert compute_metrics(g) == analytic_metrics(SWEEP_LARGEST)
    assert len(rows) == len(twin_classes(g)[0]) == 4
    expected = compute_metrics(star(6))
    rows.clear()
    # the hub between two runs of three leaves: one class of two runs
    assert compute_metrics(relabel(star(6), [3, 0, 1, 2, 4, 5, 6])) == expected
    assert len(rows) == 2


SWEEP_LARGEST = GeneralizedParams(10, [(3, 100), (5, 100), (7, 100)])


def test_sweep_graph_report_survives_relabelling():
    # relabelled, few twins stay next to each other: 1503 classes in
    # place of 301, so nearly every node is a class of its own
    g = generalized_core_satellite(SWEEP_LARGEST)
    assert g.n == 1510
    perm = list(range(g.n))
    random.Random(1510).shuffle(perm)
    shuffled = relabel(g, perm)
    assert len(_twin_runs(shuffled)[0]) == 1503
    assert compute_metrics(shuffled) == compute_metrics(g)


def test_twin_class_counts():
    # the core and each satellite clique: 1 + 300 clique runs
    firsts, _, cliques = _twin_runs(generalized_core_satellite(SWEEP_LARGEST))
    assert len(firsts) == 301 and all(cliques)
    for n in (2, 7):
        assert _twin_runs(complete_graph(n)) == ([0], [n], [True])
    assert _twin_runs(complete_graph(1)) == ([0], [1], [False])
    for n in (3, 4, 9):
        path = Graph(n, [(u, u + 1) for u in range(n - 1)])
        assert _twin_runs(path) == (list(range(n)), [1] * n, [False] * n)
    # the hub, then the leaves as one run of false twins
    for b in (2, 5):
        assert _twin_runs(star(b)) == ([0, 1], [1, b], [False, False])
    assert _twin_runs(Graph(3, [])) == ([0], [3], [False])
    assert _twin_runs(Graph(0, [])) == ([], [], [])

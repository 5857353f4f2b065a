from __future__ import annotations

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GRID_PARAMS, arbitrary_graphs
from coresat import (
    GeneralizedParams,
    Graph,
    SizeLimitError,
    analytic_core_clustering,
    analytic_metrics,
    assortativity,
    assortativity_estrada,
    average_clustering,
    complete_graph,
    compute_metrics,
    generalized_core_satellite,
    local_clustering,
    path_counts,
    star,
    transitivity,
    triangle_count,
)
from coresat.metrics import (
    DIRECT_BITSET_LIMIT,
    _average_clustering_fraction,
    _bitset,
    _twin_classes,
    check_direct_size,
)
from coresat.oracle import exhaustive_subgraph_counts

BUTTERFLY = generalized_core_satellite(GeneralizedParams(1, [(2, 2)]))


def test_butterfly_direct_golden_values():
    rep = compute_metrics(BUTTERFLY)
    assert (rep.n, rep.m, rep.triangles) == (5, 6, 2)
    assert (rep.p1, rep.p2, rep.p3, rep.s13) == (6, 10, 8, 4)
    assert rep.avg_clustering == pytest.approx(13 / 15, abs=1e-15)
    assert rep.transitivity == pytest.approx(0.6, abs=1e-15)
    assert rep.assortativity == pytest.approx(-0.5, abs=1e-15)
    assert rep.assortativity_estrada == pytest.approx(-0.5, abs=1e-15)


def test_butterfly_analytic_matches():
    rep = analytic_metrics(GeneralizedParams(1, [(2, 2)]))
    assert (rep.m, rep.triangles, rep.p2, rep.p3, rep.s13) == (6, 2, 10, 8, 4)
    assert rep.avg_clustering == pytest.approx(13 / 15, abs=1e-15)
    assert rep.transitivity == pytest.approx(0.6, abs=1e-15)
    assert rep.assortativity == pytest.approx(-0.5, abs=1e-15)


def test_local_clustering_conventions():
    assert local_clustering(BUTTERFLY, 0) == pytest.approx(1 / 3)
    assert local_clustering(BUTTERFLY, 1) == 1.0
    leafy = star(3)
    assert local_clustering(leafy, 1) == 0.0  # degree 1
    assert local_clustering(Graph(2, [(0, 1)]), 0) == 0.0
    assert local_clustering(Graph(1, []), 0) == 0.0


def test_core_clustering_closed_form_examples():
    assert analytic_core_clustering(GeneralizedParams(1, [(2, 2)])) == pytest.approx(1 / 3)
    assert analytic_core_clustering(GeneralizedParams(3, [(1, 2)])) == pytest.approx(5 / 6)
    # n = 2: degree-1 convention value
    assert analytic_core_clustering(GeneralizedParams(1, [(1, 1)])) == 0.0


def test_star_metrics():
    g = star(4)
    assert average_clustering(g) == 0.0
    assert transitivity(g) == 0.0
    assert assortativity(g) == pytest.approx(-1.0)
    assert assortativity_estrada(g) == pytest.approx(-1.0)
    # closed forms agree with the convention for degree-1 satellites
    rep = analytic_metrics(GeneralizedParams(1, [(1, 4)]))
    assert rep.avg_clustering == 0.0
    assert rep.transitivity == 0.0
    assert rep.assortativity == pytest.approx(-1.0)


def test_complete_graph_metrics():
    g = complete_graph(5)
    assert average_clustering(g) == 1.0
    assert transitivity(g) == pytest.approx(1.0)
    assert assortativity(g) is None
    assert assortativity_estrada(g) is None
    rep = analytic_metrics(GeneralizedParams(2, [(3, 1)]))
    assert rep.avg_clustering == 1.0
    assert rep.transitivity == pytest.approx(1.0)
    assert rep.assortativity is None


def test_cycle_assortativity_undefined():
    cycle = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert assortativity(cycle) is None
    assert assortativity_estrada(cycle) is None


def test_path_graph_counts():
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    p2, p3 = path_counts(p4)
    assert (p2, p3) == (2, 1)
    assert triangle_count(p4) == 0
    assert assortativity(p4) == pytest.approx(-0.5)
    assert assortativity_estrada(p4) == pytest.approx(-0.5)


def test_complete_split_triangle_count():
    rep = compute_metrics(generalized_core_satellite(GeneralizedParams(3, [(1, 2)])))
    assert rep.m == 9
    assert rep.triangles == 7


def test_closed_forms_match_direct_on_grid():
    for p in GRID_PARAMS:
        direct = compute_metrics(generalized_core_satellite(p))
        closed = analytic_metrics(p)
        assert (closed.n, closed.m) == (direct.n, direct.m), p
        assert closed.triangles == direct.triangles, p
        assert closed.p2 == direct.p2, p
        assert closed.p3 == direct.p3, p
        assert closed.s13 == direct.s13, p
        assert abs(closed.avg_clustering - direct.avg_clustering) <= 1e-12, p
        assert abs(closed.transitivity - direct.transitivity) <= 1e-12, p
        assert direct.assortativity is not None, p
        assert abs(closed.assortativity - direct.assortativity) <= 1e-12, p


@st.composite
def generalized_params(draw):
    """1 to 5 satellite classes; c = 1, s_i = 1 and one satellite included."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5, unique=True))
    counts = st.integers(1, 4)
    return GeneralizedParams(
        draw(st.integers(1, 5)), [(size, draw(counts)) for size in sizes]
    )


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
    counts = [getattr(closed, f) for f in _COUNT_FIELDS]
    assert counts == [getattr(direct, f) for f in _COUNT_FIELDS]
    if p.n <= 9:
        enum = exhaustive_subgraph_counts(g)
        assert counts[2:] == [enum.triangles, g.m, enum.p2, enum.p3, enum.s13]

    avg, r = _exact_ratios(g)
    assert _average_clustering_fraction(p) == avg
    trans = Fraction(3 * closed.triangles, closed.p2) if closed.p2 else 0
    assert abs(closed.avg_clustering - avg) <= 1e-12
    assert abs(closed.transitivity - trans) <= 1e-12
    if r is None:
        assert closed.assortativity is None and closed.assortativity_estrada is None
    else:
        assert abs(closed.assortativity - r) <= 1e-12
        assert abs(closed.assortativity_estrada - r) <= 1e-12

    faulted = analytic_metrics(p, triangle_sign_fault=True)
    if p.satellite_total >= 2:
        assert faulted.triangles != closed.triangles


def test_gap_is_infinite_on_any_count_or_definedness_and_else_the_largest_ratio_gap():
    rep = compute_metrics(BUTTERFLY)
    assert rep.gap(rep) == 0.0
    assert rep.gap(analytic_metrics(GeneralizedParams(1, [(2, 2)]))) <= 1e-15
    for field in _COUNT_FIELDS:
        assert rep.gap(dataclasses.replace(rep, **{field: getattr(rep, field) + 1})) == math.inf
    undefined = dataclasses.replace(rep, assortativity=None)
    assert rep.gap(undefined) == undefined.gap(rep) == math.inf
    assert undefined.gap(undefined) == 0.0
    off = dataclasses.replace(
        rep, transitivity=rep.transitivity + 0.25, assortativity=rep.assortativity - 0.5
    )
    assert rep.gap(off) == pytest.approx(0.5, abs=1e-15)


def test_assortativity_negative_on_grid():
    for p in GRID_PARAMS:
        r = assortativity(generalized_core_satellite(p))
        assert r is not None and r < 0, p


def test_naive_average_clustering_variant_rejected():
    # a tempting closed form squares the satellite count instead of using
    # count*(count-1); it disagrees with the direct value on the butterfly
    c, s, eta = 1, 2, 2
    n = c + eta * s
    naive = 1 - Fraction(c * s * s * eta * eta, n * (n - 1) * (n - 2))
    assert naive == Fraction(11, 15)
    direct = average_clustering(BUTTERFLY)
    assert direct == pytest.approx(13 / 15, abs=1e-15)
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
    direct3 = average_clustering(generalized_core_satellite(GeneralizedParams(2, [(3, 3)])))
    assert values[3] == pytest.approx(direct3, abs=1e-12)
    assert values[2] > values[3] < values[4]
    assert values[2] == pytest.approx(25 / 28, abs=1e-15)
    assert values[3] == pytest.approx(49 / 55, abs=1e-15)


@settings(max_examples=120)
@given(arbitrary_graphs())
def test_transitivity_identity(g):
    p2, _ = path_counts(g)
    t = transitivity(g)
    if p2 == 0:
        assert t == 0.0
    else:
        assert t == pytest.approx(3 * triangle_count(g) / p2, abs=1e-15)


@settings(max_examples=120)
@given(arbitrary_graphs())
def test_assortativity_routes_agree(g):
    r_edges = assortativity(g)
    r_counts = assortativity_estrada(g)
    assert (r_edges is None) == (r_counts is None)
    if r_edges is not None:
        assert r_edges == pytest.approx(r_counts, abs=1e-12)
        assert -1.0 - 1e-12 <= r_edges <= 1.0 + 1e-12


@settings(max_examples=120)
@given(arbitrary_graphs())
def test_clustering_bounds(g):
    avg = average_clustering(g)
    t = transitivity(g)
    assert 0.0 <= avg <= 1.0
    assert 0.0 <= t <= 1.0 + 1e-15
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
    # every single-metric function is a view of the same report
    assert triangle_count(g) == rep.triangles
    assert path_counts(g) == (rep.p2, rep.p3)
    assert average_clustering(g) == rep.avg_clustering
    assert transitivity(g) == rep.transitivity
    assert assortativity(g) == rep.assortativity
    assert assortativity_estrada(g) == rep.assortativity_estrada

    avg, r = _exact_ratios(g)
    trans = Fraction(3 * counts.triangles, counts.p2) if counts.p2 else 0
    assert abs(rep.avg_clustering - avg) <= 1e-12
    assert abs(rep.transitivity - trans) <= 1e-12
    if r is None:
        assert rep.assortativity is None and rep.assortativity_estrada is None
    else:
        assert abs(rep.assortativity - r) <= 1e-12
        assert abs(rep.assortativity_estrada - r) <= 1e-12


def test_kernel_limit_counts_the_bits_it_allocates():
    # a star on 2**15 + 1 nodes: with its hub at node 0 every leaf row is
    # one bit wide, with its hub at the last node every leaf row is n bits
    n = 2**15 + 1
    hub_first = Graph(n, [(0, v) for v in range(1, n)])
    hub_last = Graph(n, [(u, n - 1) for u in range(n - 1)])
    check_direct_size(hub_first)
    rep = compute_metrics(hub_first)
    assert (rep.triangles, rep.p2, rep.p3, rep.avg_clustering) == (0, math.comb(n - 1, 2), 0, 0.0)
    assert rep.assortativity == pytest.approx(-1.0, abs=1e-12)
    # n - 1 leaf rows of n bits and a hub row of n - 1 bits
    size = (n - 1) * (n + 1)
    assert size > DIRECT_BITSET_LIMIT
    with pytest.raises(SizeLimitError, match=f"{size} bits"):
        compute_metrics(hub_last)
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
def test_kernel_on_wide_rows_matches_set_counts_and_exact_ratios(g):
    nbrs = [set(row) for row in g.adj]
    deg = [len(row) for row in g.adj]
    tri = sum(len(nbrs[u] & nbrs[v]) for u, v in g.edges) // 3
    p3 = sum((deg[u] - 1) * (deg[v] - 1) for u, v in g.edges) - 3 * tri
    rep = compute_metrics(g)
    assert (rep.triangles, rep.p3) == (tri, p3)
    avg, r = _exact_ratios(g)
    assert abs(rep.avg_clustering - avg) <= 1e-12
    if r is None:
        assert rep.assortativity is None
    else:
        assert abs(rep.assortativity - r) <= 1e-12


def _relabel(g, perm):
    """``g`` with node u renamed perm[u]."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@st.composite
def planted_twin_graphs(draw):
    """Random graphs blown up into groups of true and false twins.

    Each node of a random base graph becomes a group of 1 to 3 nodes: a
    clique (true twins) or an independent set (false twins), joined to
    every node of the groups next to it.  Isolated nodes are appended,
    and the nodes are relabelled at random or left in group order.
    """
    base = draw(st.integers(min_value=0, max_value=6))
    pairs = list(itertools.combinations(range(base), 2))
    links = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    groups, n = [], 0
    for _ in range(base):
        size = draw(st.integers(min_value=1, max_value=3))
        groups.append((range(n, n + size), draw(st.booleans())))
        n += size
    edges = [e for nodes, clique in groups if clique for e in itertools.combinations(nodes, 2)]
    edges += [(u, v) for a, b in links for u in groups[a][0] for v in groups[b][0]]
    n += draw(st.integers(min_value=0, max_value=2))
    g = Graph(n, edges)
    if draw(st.booleans()):
        g = _relabel(g, draw(st.permutations(range(n))))
    return g


def _closed_rows(g):
    return [frozenset(row) | {u} for u, row in enumerate(g.adj)]


@settings(max_examples=300)
@given(planted_twin_graphs())
def test_kernel_on_planted_twins_matches_counts_and_exact_ratios(g):
    # the runs are exactly the maximal runs of consecutive true twins
    firsts, sizes = _twin_classes(g.adj)
    closed = _closed_rows(g)
    starts = [v for v in range(g.n) if v == 0 or closed[v] != closed[v - 1]]
    assert firsts == starts
    assert sum(sizes) == g.n and all(z >= 1 for z in sizes)

    rep = compute_metrics(g)
    deg = [len(row) for row in g.adj]
    if g.n <= 9:
        counts = exhaustive_subgraph_counts(g)
        tri, p3 = counts.triangles, counts.p3
        assert (rep.p2, rep.s13) == (counts.p2, counts.s13)
    else:
        nbrs = tuple(map(frozenset, g.adj))
        tri = sum(len(nbrs[u] & nbrs[v]) for u, v in g.edges) // 3
        p3 = sum((deg[u] - 1) * (deg[v] - 1) for u, v in g.edges) - 3 * tri
        assert rep.p2 == sum(math.comb(k, 2) for k in deg)
        assert rep.s13 == sum(math.comb(k, 3) for k in deg)
    assert (rep.n, rep.m, rep.triangles, rep.p3) == (g.n, g.m, tri, p3)

    avg, r = _exact_ratios(g)
    trans = Fraction(3 * tri, rep.p2) if rep.p2 else 0
    assert abs(rep.avg_clustering - avg) <= 1e-12
    assert abs(rep.transitivity - trans) <= 1e-12
    if r is None:
        assert rep.assortativity is None and rep.assortativity_estrada is None
    else:
        assert abs(rep.assortativity - r) <= 1e-12
        assert abs(rep.assortativity_estrada - r) <= 1e-12


SWEEP_LARGEST = GeneralizedParams(10, [(3, 100), (5, 100), (7, 100)])


def test_sweep_graph_report_survives_relabelling():
    # relabelled, few twins stay next to each other: 1503 classes in
    # place of 301, so nearly every node is a class of its own
    g = generalized_core_satellite(SWEEP_LARGEST)
    assert g.n == 1510
    perm = list(range(g.n))
    random.Random(1510).shuffle(perm)
    shuffled = _relabel(g, perm)
    assert len(_twin_classes(shuffled.adj)[0]) == 1503
    assert compute_metrics(shuffled) == compute_metrics(g)


def test_twin_class_counts():
    # the core and each satellite clique: 1 + 300 classes
    assert len(_twin_classes(generalized_core_satellite(SWEEP_LARGEST).adj)[0]) == 301
    for n in (1, 2, 7):
        assert _twin_classes(complete_graph(n).adj) == ([0], [n])
    for n in (3, 4, 9):
        path = Graph(n, [(u, u + 1) for u in range(n - 1)])
        assert _twin_classes(path.adj) == (list(range(n)), [1] * n)
    for b in (2, 5):
        assert len(_twin_classes(star(b).adj)[0]) == b + 1
    assert _twin_classes(Graph(0, []).adj) == ([], [])

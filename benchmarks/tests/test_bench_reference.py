"""The reference module against brute force on small graphs.

Graphs are built here from their parameters, apart from both the
program and the reference, and counted by enumeration.
"""
from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from reference import Family

CASES = [
    (c, classes)
    for c in range(1, 5)
    for classes in (
        ((1, 1),),
        ((1, 2),),
        ((2, 2),),
        ((3, 1),),
        ((2, 3),),
        ((1, 1), (2, 1)),
        ((1, 2), (3, 2)),
        ((2, 1), (4, 2)),
        ((1, 1), (2, 1), (3, 1)),
    )
]


def build(core: int, classes) -> list[set[int]]:
    """Adjacency sets: core clique on 0..c-1, each satellite clique after it."""
    blocks = [size for size, count in sorted(classes) for _ in range(count)]
    n = core + sum(blocks)
    adj = [set() for _ in range(n)]

    def link(u, v):
        adj[u].add(v)
        adj[v].add(u)

    for u, v in itertools.combinations(range(core), 2):
        link(u, v)
    start = core
    for size in blocks:
        clique = range(start, start + size)
        for u, v in itertools.combinations(clique, 2):
            link(u, v)
        for u in clique:
            for w in range(core):
                link(u, w)
        start += size
    return adj


def brute(adj: list[set[int]]) -> dict:
    n = len(adj)
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    deg = [len(a) for a in adj]
    triangles = sum(
        1 for a, b, c in itertools.combinations(range(n), 3)
        if b in adj[a] and c in adj[a] and c in adj[b]
    )
    p2 = sum(1 for mid in range(n) for a, b in itertools.combinations(sorted(adj[mid]), 2))
    p3 = 0
    for b, c in edges:
        for a in adj[b]:
            for d in adj[c]:
                if len({a, b, c, d}) == 4:
                    p3 += 1
    s13 = sum(1 for u in range(n) for _ in itertools.combinations(sorted(adj[u]), 3))
    local = []
    for u in range(n):
        k = deg[u]
        links = sum(1 for a, b in itertools.combinations(sorted(adj[u]), 2) if b in adj[a])
        local.append(Fraction(links, comb(k, 2)) if k >= 2 else Fraction(0))
    # Pearson correlation of the degrees at the two ends of each edge,
    # over both orientations
    ends = [(deg[u], deg[v]) for u, v in edges] + [(deg[v], deg[u]) for u, v in edges]
    count = len(ends)
    mean = Fraction(sum(j for j, _ in ends), count)
    cov = Fraction(sum(j * k for j, k in ends), count) - mean * mean
    var = Fraction(sum(j * j for j, _ in ends), count) - mean * mean
    a = [[int(v in adj[u]) for v in range(n)] for u in range(n)]
    lap = [[(deg[u] if u == v else -a[u][v]) for v in range(n)] for u in range(n)]
    return {
        "n": n,
        "m": len(edges),
        "triangles": triangles,
        "p2": p2,
        "p3": p3,
        "s13": s13,
        "avg_clustering": sum(local, Fraction(0)) / n,
        "transitivity": Fraction(3 * triangles, p2) if p2 else Fraction(0),
        "assortativity": cov / var if var else None,
        "degrees": Counter(deg),
        "adjacency_traces": tuple(_trace_power(a, k) for k in (1, 2, 3)),
        "laplacian_traces": tuple(_trace_power(lap, k) for k in (1, 2)),
    }


def _trace_power(mat, k: int) -> int:
    n = len(mat)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k):
        power = [[sum(power[i][t] * mat[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return sum(power[i][i] for i in range(n))


@pytest.mark.parametrize("core, classes", CASES)
def test_reference_matches_brute_force(core, classes):
    fam = Family.of(core, classes)
    got = brute(build(core, classes))
    assert fam.counts() == {k: got[k] for k in ("n", "m", "triangles", "p2", "p3", "s13")}
    assert fam.avg_clustering() == got["avg_clustering"]
    assert fam.transitivity() == got["transitivity"]
    assert fam.assortativity() == got["assortativity"]
    assert fam.degree_counts() == got["degrees"]
    assert fam.adjacency_power_sums() == got["adjacency_traces"]
    assert fam.laplacian_power_sums() == got["laplacian_traces"]


def test_clustering_formula_when_all_degrees_are_at_least_two():
    for core, classes in CASES:
        fam = Family.of(core, classes)
        if core + fam.classes[0][0] < 3:
            continue
        n, S, Q = fam.n, fam.satellite_nodes, fam.satellite_square_sum
        assert fam.avg_clustering() == 1 - Fraction(core * (S * S - Q), n * (n - 1) * (n - 2))


def test_triangle_formula_against_the_sweeps_largest_graph():
    fam = Family.of(10, ((3, 100), (5, 100), (7, 100)))
    assert (fam.n, fam.m) == (1510, 18445)
    t = comb(10, 3) + sum(100 * (comb(s, 3) + 10 * comb(s, 2) + comb(10, 2) * s) for s in (3, 5, 7))
    assert fam.triangles == t


def test_classes_merge_by_size():
    assert Family.of(2, [(3, 1), (1, 2), (3, 4)]).classes == ((1, 2), (3, 5))
    with pytest.raises(ValueError):
        Family.of(0, [(1, 1)])

"""Clustering, transitivity, assortativity, and subgraph counts.

Direct routines work on any Graph.  ``compute_metrics`` is the direct
kernel, in the node-iterator style of triangle listing (Schank & Wagner,
WEA 2005; Latapy, TCS 2008), with neighbor rows held as Python int
bitsets.  It works on the quotient of ``graphs.twin_classes``, the one
entry point to the twin classes, never node by node.  Runs of true twins
(equal closed neighborhoods) or false twins (equal open ones) with one
size and kind and the same runs next to them form a class, an equitable
cell (Cvetkovic, Rowlinson & Simic, *An Introduction to the Theory of
Graph Spectra*, 2010), and an automorphism swaps any two runs of a
class, so they share degree, triangles and neighbor degree sum.  The
kernel reads the cells' integer divisor matrix B, the neighbors each
node of class i has in class j, and evaluates each class once, at its
first node, weighted by its node count: t + 1 classes for t satellite
sizes, 4 for every sweep graph.  Only proven twins are merged, so the
result is exact on any graph; a graph without twins gives classes of one
node each.  Every metric is a field of its one ``MetricsReport``;
``oracle.local_clustering`` gives one node's clustering by brute force.

Only the first node of each class gets a bitset row, indexed by node,
so that an AND of two rows counts common neighbors exactly.  Row u spans
bits 0 to max(adj[u]), so the rows take at most n bits per class.  On
a graph the CLI builds, with at most 10**6 edges and so at most 180
satellite sizes, that stays far below ``DIRECT_BITSET_LIMIT``.  The
limit is for the graphs of the library's other callers: without twins
every node is a class, and the rows take up to n**2 bits.  It is checked
before any row is built.  Adjacency is never held as a dense matrix.

The Pearson and the subgraph-count (Estrada) assortativity are two
expressions over the same kernel integers (p3 is derived from the
Pearson edge sum), so their agreement is not an independent check;
``analytic_metrics`` and ``oracle.exhaustive_subgraph_counts`` are.

The ``analytic_*`` routines evaluate closed forms over
``GeneralizedParams``, for any number of satellite classes; every
closed form here is cross-validated against the direct route and the
exhaustive oracle by the test suite and the ``verify`` command.  Every
count is a core term plus one term per class, the subgraph-count route
of Estrada (Phys. Rev. E 84, 047101, 2011), in exact integer
arithmetic.  On both routes every ratio is one exact rational, rounded
to float once, so the two reports compare with ``==``.

Conventions
-----------
* Local clustering of a node with degree 0 or 1 is 0.
* Degree assortativity is ``None`` (undefined) when its denominator
  vanishes, e.g. on regular graphs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import mul

from .exceptions import SizeLimitError
from .graphs import Graph, twin_classes
from .params import GeneralizedParams

__all__ = [
    "DIRECT_BITSET_LIMIT",
    "MetricsReport",
    "compute_metrics",
    "analytic_metrics",
]


# bits summed over the kernel's bitset rows, one per class of twins:
# 128 MiB of bits, enough for every graph of up to 2**15 nodes
DIRECT_BITSET_LIMIT = 2**30
# rows with more neighbors are read from a string of binary digits
_SHIFT_ROW_LIMIT = 16


@dataclass(frozen=True)
class MetricsReport:
    """One bundle of graph metrics.

    ``p1``/``p2``/``p3`` count paths with 1, 2, 3 edges; ``s13`` counts
    3-star subgraphs.  ``assortativity`` and ``assortativity_estrada``
    are ``None`` when undefined.  Every ratio is its exact value rounded
    once, so a direct and a closed-form report compare with ``==``.
    """

    n: int
    m: int
    triangles: int
    p1: int
    p2: int
    p3: int
    s13: int
    avg_clustering: float
    transitivity: float
    assortativity: float | None
    assortativity_estrada: float | None


def _bitset(row: list[int]) -> int:
    """The int with bit v set for every v in the sorted ``row``."""
    if len(row) <= _SHIFT_ROW_LIMIT:
        b = 0
        for v in row:
            b |= 1 << v
        return b
    # one shift per neighbor would copy len(row) * row[-1] bits; the
    # digit string is linear in the row's width.  Digit v is written at
    # index v and the string reversed once, most significant digit first
    digits = bytearray(b"0") * (row[-1] + 1)
    for v in row:
        digits[v] = 49  # "1"
    digits.reverse()
    return int(digits, 2)


def _count_ratios(m: int, t: int, p2: int, p3: int, s13: int) -> tuple[float, float | None]:
    """Transitivity and the subgraph-count assortativity (``None`` if undefined)."""
    den = m * (3 * s13 + p2) - p2 * p2
    r = (m * (p3 + 3 * t) - p2 * p2) / den if den else None
    return (3 * t / p2 if p2 else 0.0), r


def compute_metrics(g: Graph) -> MetricsReport:
    """All metrics of ``g`` by direct computation, once per class of twin runs.

    ``graphs.twin_classes`` groups the nodes into classes, each
    evaluated once at its first node r, with degree k; the class's node
    count, its runs times their size, weights every sum.  Only r gets a
    Python int bitset row, one per class.  Each of the B[i][j] nodes of
    class j next to r has as many common neighbors with r as class j's
    first node d has, ``(bits[r] & bits[d]).bit_count()``.  On the
    diagonal, d is r itself: its k common neighbors overcount each of
    its B[i][i] mates by one, the mate itself.  So twice the
    triangles through r is sum_j B[i][j] * common(r, d_j) - B[i][i], and
    the neighbor degree sum of r is sum_j B[i][j] * k_d.
    The edge sums come from node sums: se = sum k_u*k_v is half of
    sum_u k_u * (neighbor degree sum of u), ss = sum (k_u + k_v) is
    sum k**2 and sq = sum (k_u**2 + k_v**2) is sum k**3.  The Pearson
    assortativity is (4*m*se - ss**2) / (2*m*sq - ss**2), and the
    subgraph-count (Estrada) one, with t triangles, is
    (m*(p3 + 3t) - p2**2) / (m*(3*s13 + p2) - p2**2).  The average
    clustering is the sum over the classes with k >= 2 of their weight
    times triangles(r) / C(k, 2), over n.  Each class adds its term over
    the common denominator n * lcm C(k, 2) of the classes, and one int
    division, which rounds correctly, ends the sum.
    """
    n, m = g.n, g.m
    firsts, sizes, counts, quotient = twin_classes(g)
    rows = list(map(g.adj.__getitem__, firsts))
    # rows are sorted, so row u takes row[-1] + 1 bits
    size = sum(row[-1] + 1 for row in rows if row)
    if size > DIRECT_BITSET_LIMIT:
        raise SizeLimitError(
            f"bitset rows of {size} bits exceed the direct metrics limit {DIRECT_BITSET_LIMIT}"
        )
    bits = list(map(_bitset, rows))
    deg = list(map(len, rows))
    weights = list(map(mul, counts, sizes))
    twice, nds = [], []
    for i, (b, near) in enumerate(zip(bits, quotient)):
        # r has k neighbors in common with itself, a mate in its run k - 1
        common = map(int.bit_count, map(b.__and__, map(bits.__getitem__, near)))
        twice.append(sum(map(mul, near.values(), common)) - near.get(i, 0))
        nds.append(sum(map(mul, near.values(), map(deg.__getitem__, near))))
    squares = list(map(mul, deg, deg))
    t = sum(map(mul, weights, twice)) // 6
    # sum over edges of k_u * k_v
    se = sum(map(mul, weights, map(mul, deg, nds))) // 2
    ss = sum(map(mul, weights, squares))  # sum over edges of k_u + k_v
    sq = sum(map(mul, weights, map(mul, squares, deg)))  # sum over edges of k_u**2 + k_v**2
    pairs = list(map(math.comb, deg, repeat(2)))
    p2 = sum(map(mul, weights, pairs))
    p3 = se - ss + m - 3 * t  # sum over edges of (k_u - 1)(k_v - 1), minus 3t
    s13 = sum(map(mul, weights, map(math.comb, deg, repeat(3))))
    # C(k, 2) is 0 exactly for k < 2, where clustering is 0
    common = math.lcm(*filter(None, pairs))
    total = sum(z * (x // 2) * (common // p) for z, x, p in zip(weights, twice, pairs) if p)
    transitivity, r_estrada = _count_ratios(m, t, p2, p3, s13)
    den = 2 * m * sq - ss * ss
    return MetricsReport(
        n=n,
        m=m,
        triangles=t,
        p1=m,
        p2=p2,
        p3=p3,
        s13=s13,
        avg_clustering=total / (common * n) if n else 0.0,
        transitivity=transitivity,
        assortativity=(4 * m * se - ss * ss) / den if den else None,
        assortativity_estrada=r_estrada,
    )


# not in __all__: benchmarks/tracing.py wraps these names
def triangle_count(g: Graph) -> int:
    return compute_metrics(g).triangles


def assortativity(g: Graph) -> float | None:
    return compute_metrics(g).assortativity


def assortativity_estrada(g: Graph) -> float | None:
    return compute_metrics(g).assortativity_estrada


# ---------------------------------------------------------------------------
# closed forms over GeneralizedParams
# ---------------------------------------------------------------------------

def _closed_counts(
    core: int, classes: list[tuple[int, int]], sign_fault: bool = False
) -> tuple[int, int, int, int, int]:
    """Core triangles, triangles, p2, p3 and s13 of ``core`` and (size, count) classes.

    The integer core of ``analytic_metrics``, shared with the divergence
    series of ``verify``, which asks only for counts.  One core node's
    n - 1 neighbors are all the other nodes, and the only non-adjacent
    pairs among them are satellite nodes in different cliques.  With
    S = sum eta_i*s_i and Q = sum eta_i*s_i**2 there are (S**2 - Q) / 2
    such pairs.  A node of class i has degree d_i = c+s_i-1 and its
    neighbors form a clique, so it lies on C(d_i, 2) triangles; summed
    over all nodes, every triangle is counted three times.  p3 is the
    sum over edges of (k_u - 1)(k_v - 1), minus 3 per triangle.
    ``sign_fault`` adds Q instead of subtracting it: the negative
    control of ``analytic_metrics``.
    """
    s = q = 0
    for size, count in classes:
        s += count * size
        q += count * size * size
    c, n = core, core + s
    core_triangles = math.comb(n - 1, 2) - (s * s + (q if sign_fault else -q)) // 2
    sat_paths = 0  # 2-paths centered on satellite nodes, all closed
    s13 = c * math.comb(n - 1, 3)
    # sum of (k_u - 1)(k_v - 1) over edges, core-core edges first
    edge_sum = math.comb(c, 2) * (n - 2) ** 2
    for size, count in classes:
        nodes, d = count * size, c + size - 1
        sat_paths += nodes * math.comb(d, 2)
        s13 += nodes * math.comb(d, 3)
        # the class's core-satellite edges, then its clique edges
        edge_sum += (c * nodes * (n - 2) + count * math.comb(size, 2) * (d - 1)) * (d - 1)
    tri = (c * core_triangles + sat_paths) // 3
    return core_triangles, tri, c * math.comb(n - 1, 2) + sat_paths, edge_sum - 3 * tri, s13


def _size_counts(params: GeneralizedParams) -> list[tuple[int, int]]:
    return [(cls.size, cls.count) for cls in params.classes]


def _core_triangles(params: GeneralizedParams, sign_fault: bool = False) -> int:
    """Triangles through one core node (``_closed_counts``)."""
    return _closed_counts(params.core, _size_counts(params), sign_fault)[0]


def _average_clustering_terms(params: GeneralizedParams, core_triangles: int) -> tuple[int, int]:
    """Numerator and denominator of the exact average clustering.

    A core node has clustering t_core / C(n-1, 2).  A satellite node's
    neighborhood (its clique plus the core) is itself a clique, so its
    clustering is 1, unless its degree c+s_i-1 is below 2, where the
    convention value 0 applies.
    """
    c, n = params.core, params.n
    pairs = math.comb(n - 1, 2)
    if pairs == 0:  # n <= 2: every degree is at most 1
        return 0, 1
    closed = sum(cls.count * cls.size for cls in params.classes if c + cls.size >= 3)
    return c * core_triangles + closed * pairs, n * pairs


def _average_clustering_fraction(
    params: GeneralizedParams, *, triangle_sign_fault: bool = False
) -> Fraction:
    """Exact average clustering, the rational that ``analytic_metrics`` rounds."""
    core_triangles = _core_triangles(params, triangle_sign_fault)
    return Fraction(*_average_clustering_terms(params, core_triangles))


def analytic_metrics(
    params: GeneralizedParams, *, triangle_sign_fault: bool = False
) -> MetricsReport:
    """MetricsReport evaluated from closed forms alone.

    Every count comes from ``_closed_counts``, a core term plus one term
    per class in exact integers; the c core nodes have degree n - 1 and
    t_core triangles each.  Each ratio is one exact rational, rounded to
    float once (int / int rounds correctly), with no ``Fraction`` built.

    ``triangle_sign_fault`` flips the sign of Q in t_core.  The result
    is wrong on purpose: it is the negative control of the verification
    pipeline, and it reaches both the triangle count and the average
    clustering through that one term.
    """
    n, m = params.n, params.m
    core_triangles, tri, p2, p3, s13 = _closed_counts(
        params.core, _size_counts(params), triangle_sign_fault
    )
    transitivity, r = _count_ratios(m, tri, p2, p3, s13)
    avg, nodes_by_pairs = _average_clustering_terms(params, core_triangles)
    return MetricsReport(
        n=n,
        m=m,
        triangles=tri,
        p1=m,
        p2=p2,
        p3=p3,
        s13=s13,
        avg_clustering=avg / nodes_by_pairs,
        transitivity=transitivity,
        assortativity=r,
        assortativity_estrada=r,
    )

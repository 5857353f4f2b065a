"""Clustering, transitivity, assortativity, and subgraph counts.

Direct routines work on any Graph.  ``compute_metrics`` is the direct
kernel, in the node-iterator style of triangle listing (Schank & Wagner,
WEA 2005; Latapy, TCS 2008), with neighbor rows held as Python int
bitsets.  It first splits the nodes into runs of true twins, nodes with
equal closed neighborhoods.  Every satellite clique of a core-satellite
graph is such a run, and so is the core: they form an equitable
partition (Cvetkovic, Rowlinson & Simic, *An Introduction to the Theory
of Graph Spectra*, 2010).  Twins have the same degree, triangles and
neighbor degree sum, so the kernel computes them for one representative
per run, and only representatives get a bitset row.  Only proven twins
are merged, so the result is exact on any graph; a graph without twins
gives runs of one node each.  Every report field is derived from those
integers, expanded to every node of the run.  ``triangle_count``,
``path_counts``, ``average_clustering``, ``transitivity`` and both
assortativity routes are views of that one report.  Row u of the
bitsets spans bits 0 to max(adj[u]).  ``DIRECT_BITSET_LIMIT`` is still
checked against the total over every row, before any row is built: about
n**2 / 2 bits on a graph of small satellite cliques but only about 2n
bits on a star.  Adjacency is never held as a dense matrix.

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
arithmetic; ratios are converted to floating point only at the last
step.

Conventions
-----------
* Local clustering of a node with degree 0 or 1 is 0.
* Degree assortativity is ``None`` (undefined) when its denominator
  vanishes, e.g. on regular graphs.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, islice, repeat
from operator import eq, mul, sub

from .exceptions import SizeLimitError
from .graphs import Graph
from .params import GeneralizedParams

__all__ = [
    "DIRECT_BITSET_LIMIT",
    "MetricsReport",
    "local_clustering",
    "average_clustering",
    "transitivity",
    "triangle_count",
    "path_counts",
    "assortativity",
    "assortativity_estrada",
    "check_direct_size",
    "compute_metrics",
    "analytic_core_clustering",
    "analytic_metrics",
]


# bits summed over the kernel's bitset rows: 128 MiB of bits, enough
# for every graph of up to 2**15 nodes
DIRECT_BITSET_LIMIT = 2**30
# rows with more neighbors are read from a string of binary digits
_SHIFT_ROW_LIMIT = 16


@dataclass(frozen=True)
class MetricsReport:
    """One bundle of graph metrics.

    ``p1``/``p2``/``p3`` count paths with 1, 2, 3 edges; ``s13`` counts
     3-star subgraphs.  ``assortativity`` and ``assortativity_estrada``
    are ``None`` when undefined.
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


def check_direct_size(g: Graph) -> None:
    """Refuse ``g`` if its bitset rows would exceed ``DIRECT_BITSET_LIMIT``.

    Rows are sorted, so row u takes ``adj[u][-1] + 1`` bits and the total
    is known in O(n), before any row is built.
    """
    size = sum(row[-1] + 1 for row in g.adj if row)
    if size > DIRECT_BITSET_LIMIT:
        raise SizeLimitError(
            f"bitset rows of {size} bits exceed the direct metrics limit "
            f"{DIRECT_BITSET_LIMIT}"
        )


def _bitset(row: list[int]) -> int:
    """The int with bit v set for every v in the sorted ``row``."""
    if len(row) <= _SHIFT_ROW_LIMIT:
        b = 0
        for v in row:
            b |= 1 << v
        return b
    # one shift per neighbor would copy len(row) * row[-1] bits; the
    # digit string is linear in the row's width
    top = row[-1]
    digits = bytearray(b"0") * (top + 1)
    for i in map(top.__sub__, row):
        digits[i] = 49  # "1"
    return int(digits, 2)


def _twin_classes(adj: tuple[tuple[int, ...], ...]) -> tuple[list[int], list[int]]:
    """First nodes and sizes of the runs of consecutive true twins, in O(m).

    True twins have equal closed neighborhoods N[u] = N(u) + {u}.  Node v
    joins the run of v - 1 when their sorted rows are equal once v - 1
    and v swap places.  That needs row sums that differ by exactly one,
    which is tested for all nodes before any row is compared.  Only
    proven twins are merged; a graph without consecutive twins gives n
    runs of one node.
    """
    n = len(adj)
    sums = list(map(sum, adj))
    first = bytearray(b"\x01") * n
    for v in compress(range(1, n), map(eq, map(sub, sums, islice(sums, 1, None)), repeat(1))):
        a, b = adj[v - 1], adj[v]
        i = bisect_left(a, v)
        if (
            len(a) == len(b)
            and i < len(a)
            and a[i] == v
            and b[i] == v - 1
            and a[:i] == b[:i]
            and a[i + 1 :] == b[i + 1 :]
        ):
            first[v] = 0
    firsts = list(compress(range(n), first))
    return firsts, list(map(sub, chain(islice(firsts, 1, None), (n,)), firsts))


def compute_metrics(g: Graph) -> MetricsReport:
    """All metrics of ``g`` by direct computation, once per twin class.

    ``_twin_classes`` splits the nodes into runs of true twins.  Twins
    share every per-node value below, so each is computed for a run's
    first node r only and weighted by the run's size z.  Only r gets a
    Python int bitset row, and every node v reads its class's row as
    ``bits[v]``.  A class D next to r lies wholly in N(r), and each of
    its nodes has as many common neighbors with r as D's first node has,
    so the sum of ``(bits[r] & bits[v]).bit_count()`` over the neighbors
    v of r is twice the triangles through r, except that each of r's
    z - 1 twins reads r's own row and counts k where it shares k - 1.
    The edge sums come from node sums: sum k_u*k_v is half of
    sum_u k_u * (neighbor degree sum of u), sum (k_u + k_v) is sum k**2
    and sum (k_u**2 + k_v**2) is sum k**3.
    """
    check_direct_size(g)
    n, m, adj = g.n, g.m, g.adj
    reps, sizes = _twin_classes(adj)
    rows = list(map(adj.__getitem__, reps))
    bits = list(map(_bitset, rows))
    if len(reps) < n:  # every node reads its representative's row
        bits = list(chain.from_iterable(map(repeat, bits, sizes)))
    node_deg = list(map(len, adj))
    deg = list(map(len, rows))
    twice = [
        sum(map(int.bit_count, map(b.__and__, map(bits.__getitem__, row)))) - (z - 1)
        for b, row, z in zip(map(bits.__getitem__, reps), rows, sizes)
    ]
    nds = [sum(map(node_deg.__getitem__, row)) for row in rows]
    squares = list(map(mul, deg, deg))
    t = sum(map(mul, sizes, twice)) // 6
    # sum over edges of k_u * k_v
    se = sum(map(mul, sizes, map(mul, deg, nds))) // 2
    ss = sum(map(mul, sizes, squares))  # sum over edges of k_u + k_v
    sq = sum(map(mul, sizes, map(mul, squares, deg)))  # sum over edges of k_u**2 + k_v**2
    p2 = sum(map(mul, sizes, map(math.comb, deg, repeat(2))))
    p3 = se - ss + m - 3 * t  # sum over edges of (k_u - 1)(k_v - 1), minus 3t
    s13 = sum(map(mul, sizes, map(math.comb, deg, repeat(3))))

    # one term per node, as if computed node by node: fsum rounds once
    terms = [
        term
        for x, k, z in zip(twice, deg, sizes)
        if k >= 2
        for term in repeat(2.0 * (x // 2) / (k * (k - 1)), z)
    ]
    avg = math.fsum(terms) / n if n else 0.0
    r = r_estrada = None
    if m:
        den = 2 * m * sq - ss * ss
        if den:
            r = (4 * m * se - ss * ss) / den
        den = m * (3 * s13 + p2) - p2 * p2
        if den:
            r_estrada = (m * (p3 + 3 * t) - p2 * p2) / den
    return MetricsReport(
        n=n,
        m=m,
        triangles=t,
        p1=m,
        p2=p2,
        p3=p3,
        s13=s13,
        avg_clustering=avg,
        transitivity=3 * t / p2 if p2 else 0.0,
        assortativity=r,
        assortativity_estrada=r_estrada,
    )


def triangle_count(g: Graph) -> int:
    return compute_metrics(g).triangles


def local_clustering(g: Graph, u: int) -> float:
    """Fraction of the pairs of neighbors of ``u`` that are adjacent."""
    k = g.degree(u)
    if k <= 1:
        return 0.0
    nbrs = g.neighbor_sets()
    links = sum(len(nbrs[u] & nbrs[v]) for v in g.adj[u]) // 2
    return 2.0 * links / (k * (k - 1))


def average_clustering(g: Graph) -> float:
    """Arithmetic mean of local clustering over all nodes."""
    return compute_metrics(g).avg_clustering


def path_counts(g: Graph) -> tuple[int, int]:
    """(p2, p3): counts of 2-edge and 3-edge paths.

    p2 = sum over nodes of C(degree, 2); p3 comes from the identity
    p3 = sum over edges of (k_u - 1)(k_v - 1) minus three times the
    triangle count.
    """
    rep = compute_metrics(g)
    return rep.p2, rep.p3


def transitivity(g: Graph) -> float:
    """3 * triangles / p2, or 0 when the graph has no 2-edge path."""
    return compute_metrics(g).transitivity


def assortativity(g: Graph) -> float | None:
    """Pearson correlation of degrees across edges; None when undefined.

    With edge sums se = sum k_u*k_v, ss = sum (k_u + k_v) and
    sq = sum (k_u**2 + k_v**2):

        r = (4*m*se - ss**2) / (2*m*sq - ss**2)
    """
    return compute_metrics(g).assortativity


def assortativity_estrada(g: Graph) -> float | None:
    """Degree assortativity from subgraph counts.

    With m edges, t triangles, p2/p3 path counts and s13 star triplets:

        r = (m*(p3 + 3t) - p2**2) / (m*(3*s13 + p2) - p2**2)

    Algebraically identical to the edge-based Pearson form and
    evaluated from the counts; the kernel derives p3 from the Pearson
    edge sum, so the two routes are not independent of each other.
    """
    return compute_metrics(g).assortativity_estrada


# ---------------------------------------------------------------------------
# closed forms over GeneralizedParams
# ---------------------------------------------------------------------------

def _core_triangles(params: GeneralizedParams, sign_fault: bool = False) -> int:
    """Triangles through one core node.

    Its n - 1 neighbors are all the other nodes, and the only
    non-adjacent pairs among them are satellite nodes in different
    cliques.  With S = sum eta_i*s_i and Q = sum eta_i*s_i**2 there are
    (S**2 - Q) / 2 such pairs.  ``sign_fault`` adds Q instead of
    subtracting it: the negative control of ``analytic_metrics``.
    """
    s = params.satellite_nodes
    q = sum(cls.count * cls.size * cls.size for cls in params.classes)
    return math.comb(params.n - 1, 2) - (s * s + (q if sign_fault else -q)) // 2


def _average_clustering_fraction(
    params: GeneralizedParams, *, triangle_sign_fault: bool = False
) -> Fraction:
    """Exact average clustering.

    A core node has clustering t_core / C(n-1, 2).  A satellite node's
    neighborhood (its clique plus the core) is itself a clique, so its
    clustering is 1, unless its degree c+s_i-1 is below 2, where the
    convention value 0 applies.
    """
    c, n = params.core, params.n
    pairs = math.comb(n - 1, 2)
    if pairs == 0:  # n <= 2: every degree is at most 1
        return Fraction(0)
    closed = sum(cls.count * cls.size for cls in params.classes if c + cls.size >= 3)
    return Fraction(c * _core_triangles(params, triangle_sign_fault) + closed * pairs, n * pairs)


def analytic_core_clustering(params: GeneralizedParams) -> float:
    """Local clustering of a core node, closed form.

    Returns the convention value 0 when n <= 2 (core degree at most 1).
    """
    pairs = math.comb(params.n - 1, 2)
    return _core_triangles(params) / pairs if pairs else 0.0


def analytic_metrics(
    params: GeneralizedParams, *, triangle_sign_fault: bool = False
) -> MetricsReport:
    """MetricsReport evaluated from closed forms alone.

    The c core nodes have degree n - 1 and t_core triangles each
    (``_core_triangles``).  A node of class i has degree d_i = c+s_i-1
    and its neighbors form a clique, so it lies on C(d_i, 2) triangles;
    summed over all nodes, every triangle is counted three times.
    Every count is the core term plus one term per class, in exact
    integers; each ratio is one exact rational, rounded to float once
    (int / int rounds correctly).

    ``triangle_sign_fault`` flips the sign of Q in t_core.  The result
    is wrong on purpose: it is the negative control of the verification
    pipeline, and it reaches both the triangle count and the average
    clustering through that one term.
    """
    c, n, m = params.core, params.n, params.m
    sat_paths = 0  # 2-paths centered on satellite nodes, all closed
    s13 = c * math.comb(n - 1, 3)
    # sum of (k_u - 1)(k_v - 1) over edges, core-core edges first
    edge_sum = math.comb(c, 2) * (n - 2) ** 2
    for cls in params.classes:
        nodes, d = cls.count * cls.size, c + cls.size - 1
        sat_paths += nodes * math.comb(d, 2)
        s13 += nodes * math.comb(d, 3)
        # the class's core-satellite edges, then its clique edges
        edge_sum += (c * nodes * (n - 2) + cls.count * math.comb(cls.size, 2) * (d - 1)) * (d - 1)
    p2 = c * math.comb(n - 1, 2) + sat_paths
    tri = (c * _core_triangles(params, triangle_sign_fault) + sat_paths) // 3
    p3 = edge_sum - 3 * tri
    num = m * (p3 + 3 * tri) - p2 * p2
    den = m * (3 * s13 + p2) - p2 * p2
    r = num / den if den != 0 else None
    avg = _average_clustering_fraction(params, triangle_sign_fault=triangle_sign_fault)
    return MetricsReport(
        n=n,
        m=m,
        triangles=tri,
        p1=m,
        p2=p2,
        p3=p3,
        s13=s13,
        avg_clustering=float(avg),
        transitivity=3 * tri / p2 if p2 else 0.0,
        assortativity=r,
        assortativity_estrada=r,
    )

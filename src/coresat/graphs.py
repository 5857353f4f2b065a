"""Simple undirected graphs and the core-satellite generators.

Nodes are the integers ``0..n-1``.  A graph is its sorted neighbor rows;
the edge list is derived from them on demand.  One generator,
``generalized_core_satellite``, builds every core-satellite graph, of
one satellite class or several; the named families (star, windmill,
friendship, agave, complete split) are one-class calls of it.  It places
the core clique on ``0..c-1`` and each satellite clique on a
consecutive block after it, classes in ascending size order; every
formula and spectrum in the package assumes this block layout.  The
layout fixes every row, so the generator writes the rows directly, with
no edge list.  ``Graph(n, edges)`` validates any other graph's edges;
the graph operations build through it, and composed they are the
independent route the generator is tested against.  ``twin_classes``
is the one entry point to a graph's twin quotient; the scan for runs
of twins under it is private.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque
from itertools import combinations, compress, islice
from operator import eq
from typing import Iterable, Sequence

from .exceptions import InvalidParameterError
from .params import GeneralizedParams

__all__ = [
    "Graph",
    "complete_graph",
    "empty_graph",
    "disjoint_union",
    "join",
    "generalized_core_satellite",
    "star",
    "windmill",
    "friendship",
    "agave",
    "complete_split",
    "is_connected",
    "twin_classes",
]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class Graph:
    """Immutable simple undirected graph, stored as sorted neighbor rows.

    ``adj[u]`` is the ascending tuple of the neighbors of ``u``; the rows
    are the graph's only data.  ``edges`` is a view of them, built on
    each use and not kept: the ``(u, v)`` pairs with ``u < v`` in sorted
    order.
    Instances never change after construction and are safe to share
    across concurrent readers.
    """

    __slots__ = ("n", "m", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        if not _is_int(n) or n < 0:
            raise InvalidParameterError(f"node count must be a non-negative int, got {n!r}")
        rows: list[list[int]] = [[] for _ in range(n)]
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise InvalidParameterError(f"an edge is a pair of nodes, got {edge!r}") from None
            if not (_is_int(u) and _is_int(v)):
                raise InvalidParameterError(f"edge endpoints must be ints, got {edge!r}")
            if u == v:
                raise InvalidParameterError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(f"edge ({u}, {v}) out of range for n={n}")
            rows[u].append(v)
            rows[v].append(u)
        # a repeated edge leaves two equal neighbors side by side
        for row in rows:
            row.sort()
            if any(map(eq, row, islice(row, 1, None))):
                raise InvalidParameterError("duplicate edges are not allowed")
        self._store(tuple(map(tuple, rows)))

    def _store(self, adj: tuple[tuple[int, ...], ...]) -> Graph:
        """Set the rows, which the caller has sorted and checked; ``m`` is counted from them."""
        object.__setattr__(self, "n", len(adj))
        object.__setattr__(self, "m", sum(map(len, adj)) // 2)
        object.__setattr__(self, "adj", adj)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Graph instances are immutable")

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted ``(u, v)`` pairs with ``u < v``, built anew on each use."""
        return tuple((u, v) for u, row in enumerate(self.adj) for v in row if v > u)

    def degree(self, u: int) -> int:
        if not (_is_int(u) and 0 <= u < self.n):
            raise InvalidParameterError(f"no node {u!r} in a graph of {self.n} nodes")
        return len(self.adj[u])

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _twin_runs(g: Graph) -> tuple[list[int], list[int], list[bool]]:
    """First nodes, sizes and clique flags of the runs of consecutive twins, in O(m).

    True twins have equal closed neighborhoods N[u] = N(u) + {u}, so a
    run of them is a clique; false twins have equal open neighborhoods
    N(u), so a run of them is an independent set.  One pass compares
    each row with the one before it.  If v is in the sorted row of
    v - 1, v joins that run as a true twin when the two rows are equal
    once v - 1 and v swap places; if not, v joins as a false twin when
    the two rows are equal.  No run mixes the two kinds: if u, v were
    true twins and v, w false twins, then u is in N(v) = N(w), so w is
    in N[u] = N[v] and hence in N(v) = N(w), a self-loop; the other
    order is the same with u and w swapped.  So a run is flagged a
    clique when its second node joined as a true twin; a run of one
    node is flagged False.  Only proven twins are merged; a graph
    without consecutive twins gives n runs of one node.  ``twin_classes``
    is its one caller, so a scan for twins in any labelling replaces it
    there alone.
    """
    adj = g.adj
    firsts, sizes, cliques = ([0], [1], [False]) if adj else ([], [], [])
    for v, (a, b) in enumerate(zip(adj, islice(adj, 1, None)), 1):
        i = bisect_left(a, v)
        if i < len(a) and a[i] == v:
            # v - 1 is in b, so twin rows differ only at i: v in a, v - 1 in b
            twin = clique = a[:i] == b[:i] and a[i + 1 :] == b[i + 1 :]
        else:
            twin, clique = a == b, False
        if twin:
            sizes[-1] += 1
            cliques[-1] = clique
        else:
            firsts.append(v)
            sizes.append(1)
            cliques.append(False)
    return firsts, sizes, cliques


def twin_classes(g: Graph) -> tuple[list[int], list[int], list[int], list[dict[int, int]]]:
    """First nodes, run sizes, run counts and the divisor matrix B of the classes of runs.

    This is the one place that builds the twin quotient, and the only
    one that knows its unit, the run of ``_twin_runs``.  Twins agree on
    every node outside their run, so a run next to a run's first node r
    lies wholly in r's sorted row, and its first node is there too; the
    rest of r's own run is never a first node.  So the row's entries
    that are first nodes are exactly the runs next to r's run, read in
    O(m) over all runs.  The runs with the same size z, kind and runs
    next to them form a class, in the order of their first runs.  Runs
    of one class share their neighbor runs, so a run next to one is next
    to all, and no two are adjacent, which would put a run next to
    itself.  So the union of a class is an equitable cell, and B[i][j]
    counts the neighbors in class j of each node of class i: the class-j
    runs next to its run times z_j, and on the diagonal the z - 1 mates
    of a clique run.  Each row is one dict, as ``spectra.quotient``
    gives it, built once from the counted class-j runs of its first run,
    each scaled by z_j.  Nothing is stored for an independent run's
    diagonal, so a run is a clique exactly when B[i][i] > 0.  A
    core-satellite graph of t satellite sizes gives t + 1 classes and
    the paper's B: B00 = c - 1, B0i = eta_i * s_i, Bi0 = c and
    Bii = s_i - 1 (a K_n gives [{0: n - 1}]).
    """
    firsts, sizes, cliques = _twin_runs(g)
    starts = frozenset(firsts)
    # each class's first nodes of its runs, keyed by size, kind and the runs next to them
    classes: dict[tuple[int, bool, tuple[int, ...]], list[int]] = {}
    for r, z, clique in zip(firsts, sizes, cliques):
        row = g.adj[r]
        near = tuple(compress(row, map(starts.__contains__, row)))
        classes.setdefault((z, clique, near), []).append(r)
    of_run = {r: i for i, runs in enumerate(classes.values()) for r in runs}
    zs = [z for z, _, _ in classes]
    quotient = []
    for i, (z, clique, near) in enumerate(classes):
        runs = Counter(map(of_run.__getitem__, near))
        row = {j: links * zs[j] for j, links in runs.items()}
        if clique:
            row[i] = z - 1
        quotient.append(row)
    return [runs[0] for runs in classes.values()], zs, list(map(len, classes.values())), quotient


def complete_graph(p: int) -> Graph:
    """Clique on ``p`` nodes."""
    if not _is_int(p) or p < 1:
        raise InvalidParameterError(f"complete_graph needs p >= 1, got {p!r}")
    return Graph(p, combinations(range(p), 2))


def empty_graph(p: int) -> Graph:
    """``p`` isolated nodes."""
    if not _is_int(p) or p < 0:
        raise InvalidParameterError(f"empty_graph needs p >= 0, got {p!r}")
    return Graph(p, [])


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Disjoint union; node blocks follow the argument order."""
    n = 0
    edges: list[tuple[int, int]] = []
    for g in graphs:
        edges.extend((u + n, v + n) for u, v in g.edges)
        n += g.n
    return Graph(n, edges)


def join(g1: Graph, g2: Graph) -> Graph:
    """Graph join: disjoint union plus every edge between the two parts.

    Nodes of ``g1`` keep their labels; nodes of ``g2`` are shifted by
    ``g1.n``.
    """
    offset = g1.n
    edges = list(g1.edges)
    edges.extend((u + offset, v + offset) for u, v in g2.edges)
    edges.extend((u, v + offset) for u in range(g1.n) for v in range(g2.n))
    return Graph(g1.n + g2.n, edges)


def generalized_core_satellite(params: GeneralizedParams) -> Graph:
    """Generalized core-satellite graph over canonicalized classes.

    Satellite blocks appear in ascending class size, cliques of a class
    consecutive.  The sorted rows are written directly: core node ``u``
    is adjacent to every other node, and a node of the satellite block
    ``[a, b)`` to the core and to the rest of its block.  The rows are
    slices of one tuple of the node ints, and the nodes of one-node
    blocks (a star's leaves) all share the core's row.
    """
    nodes = tuple(range(params.n))
    core = nodes[: params.core]
    rows = [nodes[:u] + nodes[u + 1 :] for u in range(params.core)]
    start = params.core
    for cls in params.classes:
        for _ in range(cls.count):
            block = nodes[start : start + cls.size]
            rows.extend(core + block[:j] + block[j + 1 :] for j in range(cls.size))
            start += cls.size
    return Graph.__new__(Graph)._store(tuple(rows))


# not in __all__: benchmarks/tracing.py wraps this name in verification,
# which builds its single-class grid through it
core_satellite = generalized_core_satellite


def star(b: int) -> Graph:
    """Star with ``b`` leaves."""
    return generalized_core_satellite(GeneralizedParams(1, [(1, b)]))


def windmill(count: int, size: int) -> Graph:
    """``count`` cliques of ``size`` nodes sharing one hub node."""
    return generalized_core_satellite(GeneralizedParams(1, [(size, count)]))


def friendship(count: int) -> Graph:
    """``count`` triangles sharing one hub node."""
    return windmill(count, 2)


def agave(b: int) -> Graph:
    """Two adjacent hubs joined to ``b`` independent nodes."""
    return generalized_core_satellite(GeneralizedParams(2, [(1, b)]))


def complete_split(a: int, b: int) -> Graph:
    """Clique on ``a`` nodes joined to ``b`` independent nodes."""
    return generalized_core_satellite(GeneralizedParams(a, [(1, b)]))


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability from node 0; empty graph counts as connected."""
    if g.n <= 1:
        return True
    seen = bytearray(g.n)
    seen[0] = 1
    queue = deque([0])
    reached = 1
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if not seen[v]:
                seen[v] = 1
                reached += 1
                queue.append(v)
    return reached == g.n

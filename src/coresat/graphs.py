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
no edge list and no Python step per block: each satellite class is
built a column of its blocks at a time, and each row is the core plus
its block's other nodes, one C-level tuple per node.
``Graph(n, edges)`` validates any other graph's edges; the graph
operations build through it, and composed they are the independent
route the generator is tested against.  ``twin_classes`` is the one
entry point to a graph's twin quotient.  Under it, one private pass
finds the runs of consecutive twins, one whole run per step, and puts
each into its class in the same step: runs of one size and kind are
one class exactly when their rows outside the run are equal, and the
scan already holds that row.
"""
from __future__ import annotations

from bisect import bisect_left
from itertools import chain, combinations, islice, repeat
from operator import add, eq
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


def _twin_scan(g: Graph) -> dict[tuple[int, bool, tuple[int, ...]], list[int]]:
    """The runs of consecutive twins, put into their classes as they are found, in O(m).

    True twins have equal closed neighborhoods N[u] = N(u) + {u}, so a
    run of them is a clique; false twins have equal open neighborhoods
    N(u), so a run of them is an independent set.  Both are equivalence
    relations, so each node of a run is compared with the run's first
    node r, and one loop step takes a whole run.  If r + 1 is in r's
    sorted row at index k and its row is as long, the run grows while
    the next node v is next in r's row and its row is N[r] without v.
    That row is kept in one list, r's row with r .. v - 1 in place of
    r + 1 .. v, and one item assignment moves it on to the next node,
    so each node costs one tuple and one comparison.  If r + 1 is no
    true twin, the run grows while the next row equals r's; such a run,
    and a run of one node, is flagged False.  The length check keeps a
    hub with no true twin, such as a star's, from copying an n-long
    row.
    No run mixes the two kinds: if u, v were true twins and v, w false
    twins, then u is in N(v) = N(w), so w is in N[u] = N[v] and hence in
    N(v) = N(w), a self-loop; the other order is the same with u and w
    swapped.  Only proven twins are merged; a graph without consecutive
    twins gives n runs of one node.
    Twins agree on every node outside their run, so two runs of one
    size and kind are in one class exactly when their first nodes' rows
    without the run's own nodes are equal (``twin_classes`` says why).
    In the step that finds a run, its first node is appended to the list
    of its class, keyed by the run size, the clique flag and that row:
    r's row itself for an independent run, r's row with r + 1 .. r + z - 1
    cut out for a clique run of z.  The dict keeps the classes in the
    order of their first runs.  ``twin_classes`` is the scan's one
    caller, so a scan for twins in any labelling replaces it there alone.
    """
    adj = g.adj
    n = len(adj)
    classes: dict[tuple[int, bool, tuple[int, ...]], list[int]] = {}
    r = 0
    while r < n:
        a = adj[r]
        v = r + 1
        k = i = bisect_left(a, r)
        if k < len(a) and a[k] == v and len(adj[v]) == len(a):
            # N[r] without v, the node a[i] in r's row
            closed = list(a)
            closed[k] = r
            while adj[v] == tuple(closed):
                v += 1
                i += 1
                if i == len(a) or a[i] != v:
                    break
                closed[i] = v - 1
        if v - r > 1:
            key = (v - r, True, a[:k] + a[i:])
        else:
            while v < n and adj[v] == a:
                v += 1
            key = (v - r, False, a)
        runs = classes.get(key)
        if runs is None:
            classes[key] = [r]
        else:
            runs.append(r)
        r = v
    return classes


def twin_classes(g: Graph) -> tuple[list[int], list[int], list[int], list[dict[int, int]]]:
    """First nodes, run sizes, run counts and the divisor matrix B of the classes of runs.

    This is the one place that builds the twin quotient, and the only
    one that knows its unit, the run of ``_twin_scan``.  Twins agree on
    every node outside their run, so a run next to a run's first node r
    lies wholly in r's row: the row without the run's own nodes, the
    class key's row, is the union of the runs next to r's run.  So runs
    of one size and kind with equal rows outside them have the same
    runs next to them, and the scan groups them into one class in the
    pass that finds them.  Runs of one class share their neighbor runs,
    so a run next to one is next to all, and no two are adjacent, which
    would put a run next to itself.  So the union of a class is an
    equitable cell, and B[i][j] counts the neighbors in class j of each
    node of class i: the class-j runs next to its run times z_j, and on
    the diagonal the z - 1 mates of a clique run.  Each row is built
    once per class, from its key's row: the row's entries that are first
    nodes are exactly the runs next to the class, and each adds z_j to
    entry j as it is read, so the row is one plain dict, as
    ``spectra.quotient`` gives it, keyed in row order.  Nothing is
    stored for an independent run's diagonal, so a run is a clique
    exactly when B[i][i] > 0.  A core-satellite graph of t satellite
    sizes gives t + 1 classes and the paper's B: B00 = c - 1,
    B0i = eta_i * s_i, Bi0 = c and Bii = s_i - 1 (a K_n gives
    [{0: n - 1}]).
    """
    classes = _twin_scan(g)
    of_run = {r: i for i, runs in enumerate(classes.values()) for r in runs}
    zs = [z for z, _, _ in classes]
    quotient = []
    for i, (z, clique, outside) in enumerate(classes):
        row: dict[int, int] = {}
        for j in map(of_run.__getitem__, filter(of_run.__contains__, outside)):
            row[j] = row.get(j, 0) + zs[j]
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
    is adjacent to every other node, and a node of a satellite block to
    the core and to the rest of its block, so its row is the core and
    the block's other nodes.  A class is built a column at a time, with
    no Python step per block: column o is node o of every block, a
    stride slice of the node tuple, and node i of every block gets
    ``core`` plus the block's entries in the other columns, zipped.
    Zipping the s row streams back together puts the rows in node
    order.  Every entry is the node tuple's own int object.  The nodes
    of one-node blocks (a star's leaves) all share the core's row
    object.
    """
    nodes = tuple(range(params.n))
    core = nodes[: params.core]
    rows = [nodes[:u] + nodes[u + 1 :] for u in range(params.core)]
    start = params.core
    for cls in params.classes:
        s = cls.size
        end = start + s * cls.count
        if s == 1:
            rows.extend(repeat(core, cls.count))
        else:
            cols = [nodes[o:end:s] for o in range(start, start + s)]
            # the rows of node i of every block, for each i
            streams = (map(add, repeat(core), zip(*cols[:i], *cols[i + 1 :])) for i in range(s))
            rows.extend(chain.from_iterable(zip(*streams)))
        start = end
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
    """Reachability from node 0, one level at a time; a graph of n <= 1 counts as connected."""
    if g.n <= 1:
        return True
    seen, level = {0}, {0}
    while level:
        level = set().union(*map(g.adj.__getitem__, level)) - seen
        seen |= level
    return len(seen) == g.n

"""Simple undirected graphs and the core-satellite generators.

Nodes are the integers ``0..n-1``.  A graph is its sorted neighbor rows;
the edge list is derived from them on demand.  Core-satellite graphs
place the core clique on ``0..c-1`` and each satellite clique on a
consecutive block after it, classes in ascending size order; every
formula and spectrum in the package assumes this block layout.
"""
from __future__ import annotations

import operator
from collections import deque
from itertools import combinations, islice, repeat
from typing import Iterable, Sequence

from .exceptions import InvalidParameterError
from .params import CoreSatelliteParams, GeneralizedParams

__all__ = [
    "Graph",
    "complete_graph",
    "empty_graph",
    "disjoint_union",
    "join",
    "core_satellite",
    "generalized_core_satellite",
    "star",
    "windmill",
    "friendship",
    "agave",
    "complete_split",
    "is_connected",
]


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
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise InvalidParameterError(f"node count must be a non-negative int, got {n!r}")
        rows: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise InvalidParameterError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(f"edge ({u}, {v}) out of range for n={n}")
            rows[u].append(v)
            rows[v].append(u)
        # linear on the presorted edge lists the generators emit; a
        # repeated edge then leaves two equal neighbors side by side
        for row in rows:
            row.sort()
            if any(map(operator.eq, row, islice(row, 1, None))):
                raise InvalidParameterError("duplicate edges are not allowed")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", sum(map(len, rows)) // 2)
        object.__setattr__(self, "adj", tuple(map(tuple, rows)))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Graph instances are immutable")

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted ``(u, v)`` pairs with ``u < v``, built anew on each use."""
        return tuple((u, v) for u, row in enumerate(self.adj) for v in row if v > u)

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def complete_graph(p: int) -> Graph:
    """Clique on ``p`` nodes."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise InvalidParameterError(f"complete_graph needs p >= 1, got {p!r}")
    return Graph(p, combinations(range(p), 2))


def empty_graph(p: int) -> Graph:
    """``p`` isolated nodes."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 0:
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


def core_satellite(params: CoreSatelliteParams) -> Graph:
    """Core-satellite graph: core clique joined to disjoint satellite cliques."""
    return generalized_core_satellite(params)


def generalized_core_satellite(params: GeneralizedParams) -> Graph:
    """Generalized core-satellite graph over canonicalized classes.

    Satellite blocks appear in ascending class size, cliques of a class
    consecutive.  Edges are emitted in sorted order: each core node's
    links to every later node, then each satellite clique.
    """
    n = params.n
    edges: list[tuple[int, int]] = []
    for u in range(params.core):
        edges.extend(zip(repeat(u), range(u + 1, n)))
    start = params.core
    for cls in params.classes:
        for _ in range(cls.count):
            end = start + cls.size
            edges.extend(combinations(range(start, end), 2))
            start = end
    return Graph(n, edges)


def star(b: int) -> Graph:
    """Star with ``b`` leaves."""
    return core_satellite(CoreSatelliteParams(1, 1, b))


def windmill(count: int, size: int) -> Graph:
    """``count`` cliques of ``size`` nodes sharing one hub node."""
    return core_satellite(CoreSatelliteParams(1, size, count))


def friendship(count: int) -> Graph:
    """``count`` triangles sharing one hub node."""
    return windmill(count, 2)


def agave(b: int) -> Graph:
    """Two adjacent hubs joined to ``b`` independent nodes."""
    return core_satellite(CoreSatelliteParams(2, 1, b))


def complete_split(a: int, b: int) -> Graph:
    """Clique on ``a`` nodes joined to ``b`` independent nodes."""
    return core_satellite(CoreSatelliteParams(a, 1, b))


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

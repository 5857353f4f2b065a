"""Graph serialization: edge list, Matrix Market pattern, DOT.

All writers are deterministic: the same graph always yields the same
bytes.  They read the sorted neighbor rows directly, so no edge list is
built beside them.  Each row is split once, at the row's own node, and
its lines are made by one ``str.join``, or one f-string when that part
holds one neighbor: the neighbors above u for the edge list and DOT,
the ones below for Matrix Market.
"""
from __future__ import annotations

from bisect import bisect_left
from operator import sub

from .exceptions import InvalidParameterError
from .graphs import Graph

__all__ = ["format_edgelist", "format_matrix_market", "format_dot", "format_graph", "GRAPH_FORMATS"]


def _row_lines(g: Graph, above: bool, lead: str, mid: str, end: str, base: int = 0) -> list[str]:
    """The lines ``{lead}{u}{mid}{v}{end}``, one string per row u that has any.

    ``v`` runs over the neighbors of u above it, or below it when
    ``above`` is false, in ascending order.  ``base`` is added to every
    node label.
    """
    labels: list[str] = []  # labels[v] is the text of v + base

    def block(u: int, row: tuple[int, ...], cut: int) -> str:
        """The lines of a part of two or more neighbors, made by one join."""
        if not labels:  # made on first use: a star's Matrix Market builds none
            labels.extend(map(str, range(base, g.n + base)))
        first = f"{lead}{u}{mid}"
        part = row[cut:] if above else row[:cut]
        return first + f"{end}\n{first}".join(map(labels.__getitem__, part)) + end

    cuts = list(map(bisect_left, g.adj, range(g.n)))
    sizes = map(sub, map(len, g.adj), cuts) if above else cuts
    at = -1 if above else 0
    # a part of one neighbor, row[at], is one f-string: a star at the node
    # limit has a million such rows, and slicing and joining them would
    # take twice as long
    return [
        block(u, row, cut) if size > 1 else f"{lead}{u}{mid}{row[at] + base}{end}"
        for u, row, cut, size in zip(range(base, g.n + base), g.adj, cuts, sizes)
        if size
    ]


def format_edgelist(g: Graph) -> str:
    """`u v` per line, u < v, 0-based, preceded by a `# n=.. m=..` comment."""
    lines = [f"# n={g.n} m={g.m}"]
    lines.extend(_row_lines(g, True, "", " ", ""))
    return "\n".join(lines) + "\n"


def format_matrix_market(g: Graph) -> str:
    """Coordinate pattern symmetric form, 1-based, strictly lower triangle."""
    # stored entry for edge (u, v), u < v, is row v+1, col u+1; the
    # sorted rows already give them in (row, col) order
    lines = ["%%MatrixMarket matrix coordinate pattern symmetric", f"{g.n} {g.n} {g.m}"]
    lines.extend(_row_lines(g, False, "", " ", "", base=1))
    return "\n".join(lines) + "\n"


def format_dot(g: Graph) -> str:
    lines = ["graph {"]
    lines.extend(f"  {u};" for u in range(g.n) if not g.adj[u])
    lines.extend(_row_lines(g, True, "  ", " -- ", ";"))
    lines.append("}")
    return "\n".join(lines) + "\n"


GRAPH_FORMATS = {
    "edgelist": format_edgelist,
    "mtx": format_matrix_market,
    "dot": format_dot,
}


def format_graph(g: Graph, fmt: str) -> str:
    try:
        writer = GRAPH_FORMATS[fmt]
    except KeyError:
        raise InvalidParameterError(
            f"unknown format {fmt!r}; choose from {sorted(GRAPH_FORMATS)}"
        ) from None
    return writer(g)

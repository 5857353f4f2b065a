"""Graph serialization: edge list, Matrix Market pattern, DOT.

All writers are deterministic: the same graph always yields the same
bytes.  They read the sorted neighbor rows directly, so no edge list is
built beside them.
"""
from __future__ import annotations

from .exceptions import InvalidParameterError
from .graphs import Graph

__all__ = ["format_edgelist", "format_matrix_market", "format_dot", "format_graph", "GRAPH_FORMATS"]


def format_edgelist(g: Graph) -> str:
    """`u v` per line, u < v, 0-based, preceded by a `# n=.. m=..` comment."""
    lines = [f"# n={g.n} m={g.m}"]
    lines.extend(f"{u} {v}" for u, row in enumerate(g.adj) for v in row if u < v)
    return "\n".join(lines) + "\n"


def format_matrix_market(g: Graph) -> str:
    """Coordinate pattern symmetric form, 1-based, strictly lower triangle."""
    lines = ["%%MatrixMarket matrix coordinate pattern symmetric", f"{g.n} {g.n} {g.m}"]
    # stored entry for edge (u, v), u < v, is row v+1, col u+1; the
    # sorted rows already give them in (row, col) order
    lines.extend(f"{v + 1} {u + 1}" for v, row in enumerate(g.adj) for u in row if u < v)
    return "\n".join(lines) + "\n"


def format_dot(g: Graph) -> str:
    lines = ["graph {"]
    lines.extend(f"  {u};" for u in range(g.n) if not g.adj[u])
    lines.extend(f"  {u} -- {v};" for u, row in enumerate(g.adj) for v in row if u < v)
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

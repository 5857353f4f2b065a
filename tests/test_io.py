from __future__ import annotations

import pytest
from hypothesis import example, given, settings

from conftest import arbitrary_graphs
from coresat import (
    GeneralizedParams,
    Graph,
    InvalidParameterError,
    format_graph,
    generalized_core_satellite,
)
from coresat.io import format_dot, format_edgelist, format_matrix_market

BUTTERFLY = generalized_core_satellite(GeneralizedParams(1, [(2, 2)]))


def test_edgelist_exact():
    assert format_edgelist(BUTTERFLY) == (
        "# n=5 m=6\n"
        "0 1\n"
        "0 2\n"
        "0 3\n"
        "0 4\n"
        "1 2\n"
        "3 4\n"
    )


def test_matrix_market_exact():
    assert format_matrix_market(BUTTERFLY) == (
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        "5 5 6\n"
        "2 1\n"
        "3 1\n"
        "3 2\n"
        "4 1\n"
        "5 1\n"
        "5 4\n"
    )


def test_dot_exact():
    assert format_dot(BUTTERFLY) == (
        "graph {\n"
        "  0 -- 1;\n"
        "  0 -- 2;\n"
        "  0 -- 3;\n"
        "  0 -- 4;\n"
        "  1 -- 2;\n"
        "  3 -- 4;\n"
        "}\n"
    )


def test_dot_isolated_nodes():
    g = Graph(3, [(0, 1)])
    assert format_dot(g) == "graph {\n  2;\n  0 -- 1;\n}\n"


def test_format_graph_dispatch_and_determinism():
    for fmt in ("edgelist", "mtx", "dot"):
        assert format_graph(BUTTERFLY, fmt) == format_graph(BUTTERFLY, fmt)
    with pytest.raises(InvalidParameterError):
        format_graph(BUTTERFLY, "gml")


def test_matrix_market_entries_strictly_lower():
    text = format_matrix_market(generalized_core_satellite(GeneralizedParams(2, [(2, 3)])))
    lines = text.strip().split("\n")
    n_row, n_col, nnz = map(int, lines[1].split())
    assert n_row == n_col == 8
    entries = [tuple(map(int, line.split())) for line in lines[2:]]
    assert len(entries) == nnz
    assert all(r > c >= 1 for r, c in entries)
    assert entries == sorted(entries)


def _edge_by_edge(g: Graph) -> tuple[str, str, str]:
    """The three formats written one edge at a time from ``g.edges``."""
    edgelist = [f"# n={g.n} m={g.m}"] + [f"{u} {v}" for u, v in g.edges]
    entries = sorted((v + 1, u + 1) for u, v in g.edges)
    mtx = ["%%MatrixMarket matrix coordinate pattern symmetric", f"{g.n} {g.n} {g.m}"]
    mtx += [f"{row} {col}" for row, col in entries]
    touched = {u for edge in g.edges for u in edge}
    dot = ["graph {"] + [f"  {u};" for u in range(g.n) if u not in touched]
    dot += [f"  {u} -- {v};" for u, v in g.edges] + ["}"]
    return tuple("".join(line + "\n" for line in lines) for lines in (edgelist, mtx, dot))


def _hub(n: int, hub: int) -> Graph:
    """Node ``hub`` joined to every other node, and each leaf to the next one."""
    leaves = [u for u in range(n) if u != hub]
    return Graph(n, [(hub, u) for u in leaves] + list(zip(leaves[:-1:2], leaves[1::2])))


@settings(max_examples=200)
@given(arbitrary_graphs(max_nodes=30))
@example(Graph(0, []))
@example(Graph(1, []))
@example(Graph(6, [(1, 4)]))  # isolated nodes before, between and after
@example(_hub(1203, 0))  # the hub's neighbors all above it, each leaf's at most one below
@example(_hub(1203, 1202))  # all below it
@example(_hub(1203, 601))  # on both sides
def test_writers_match_an_edge_by_edge_reference(g):
    assert (format_edgelist(g), format_matrix_market(g), format_dot(g)) == _edge_by_edge(g)

from __future__ import annotations

import pytest

from coresat import (
    GeneralizedParams,
    Graph,
    InvalidParameterError,
    format_dot,
    format_edgelist,
    format_graph,
    format_matrix_market,
    generalized_core_satellite,
)

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

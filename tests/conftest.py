from __future__ import annotations

import itertools
from collections import deque

import pytest
from hypothesis import strategies as st

from coresat import GeneralizedParams, Graph

# the standard verification grid: c, s in 1..5, eta in 2..6
GRID_PARAMS = [
    GeneralizedParams(c, [(s, eta)])
    for c in range(1, 6)
    for s in range(1, 6)
    for eta in range(2, 7)
]


def bfs_distances(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@st.composite
def arbitrary_graphs(draw, max_nodes: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges = draw(
            st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
        )
    else:
        edges = []
    return Graph(n, edges)


@pytest.fixture(scope="session")
def grid_params():
    return GRID_PARAMS


# one line per acceptance criterion, printed after the run so the
# pass/fail verdicts survive pytest's output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)

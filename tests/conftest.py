from __future__ import annotations

import itertools
from collections import deque

import pytest
from hypothesis import strategies as st

from coresat import GeneralizedParams, Graph, generalized_core_satellite, spectra
from coresat.graphs import _twin_scan

# the standard verification grid: c, s in 1..5, eta in 2..6
GRID_PARAMS = [
    GeneralizedParams(c, [(s, eta)])
    for c in range(1, 6)
    for s in range(1, 6)
    for eta in range(2, 7)
]


def add_one_to_a_multiplicity(monkeypatch, route: str) -> None:
    """Make the spectrum of ``spectra.<route>`` count its top eigenvalue once more.

    ``analytic_spectra`` reaches both spectra through their module
    names, so the fault reaches every report, ``verify``'s included.
    """
    real = getattr(spectra, route)

    def one_too_many(params):
        (value, mult), *rest = real(params).eigenpairs
        return spectra.SpectrumResult(((value, mult + 1), *rest))

    monkeypatch.setattr(spectra, route, one_too_many)


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


def labelled_graphs(max_n: int):
    """Every labelled graph on 0 to ``max_n`` nodes: 1,100 up to 5 nodes."""
    for n in range(max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield Graph(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])


def scan_runs(g: Graph) -> tuple[list[int], list[int], list[bool]]:
    """The runs that ``graphs._twin_scan`` finds in ``g``, in node order.

    The scan files each run's first node under its class; read back,
    each run is its first node, its size and its clique flag.
    """
    runs = sorted(
        (r, z, clique) for (z, clique, _), firsts in _twin_scan(g).items() for r in firsts
    )
    return [r for r, _, _ in runs], [z for _, z, _ in runs], [clique for _, _, clique in runs]


def relabel(g, perm):
    """``g`` with node u renamed perm[u]."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@st.composite
def planted_twin_graphs(draw):
    """Random graphs blown up into groups of true and false twins.

    Each node of a random base graph becomes a group of 1 to 8 nodes: a
    clique (true twins) or an independent set (false twins), joined to
    every node of the groups next to it.  Groups of up to 8 nodes give
    runs as long as the default sweep's 7-node blocks and longer.
    Isolated nodes are appended, and the nodes are relabelled at random
    or left in group order.
    """
    base = draw(st.integers(min_value=0, max_value=6))
    pairs = list(itertools.combinations(range(base), 2))
    links = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    groups, n = [], 0
    for _ in range(base):
        size = draw(st.integers(min_value=1, max_value=8))
        groups.append((range(n, n + size), draw(st.booleans())))
        n += size
    edges = [e for nodes, clique in groups if clique for e in itertools.combinations(nodes, 2)]
    edges += [(u, v) for a, b in links for u in groups[a][0] for v in groups[b][0]]
    n += draw(st.integers(min_value=0, max_value=2))
    g = Graph(n, edges)
    if draw(st.booleans()):
        g = relabel(g, draw(st.permutations(range(n))))
    return g


@st.composite
def generalized_params(draw):
    """1 to 5 satellite classes; c = 1, s_i = 1 and one satellite included."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5, unique=True))
    counts = st.integers(1, 4)
    return GeneralizedParams(
        draw(st.integers(1, 5)), [(size, draw(counts)) for size in sizes]
    )


@st.composite
def lookalike_runs(draw):
    """Graphs whose runs of twins tempt a wrong merge of classes.

    A few base groups of 1 or 2 nodes, cliques or independent sets, are
    joined whole to whole.  Each copy takes a base group's size and kind
    and its neighbor groups, so it belongs to that group's class, unless
    one neighbor group is added or dropped: then it has the same size and
    kind but different runs next to it.  Half the graphs are relabelled,
    which scatters the runs into single nodes.
    """
    base = draw(st.integers(min_value=1, max_value=4))
    kinds = [(draw(st.integers(1, 2)), draw(st.booleans())) for _ in range(base)]
    pairs = list(itertools.combinations(range(base), 2))
    links = set(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else set()
    for copy in range(base, base + draw(st.integers(min_value=1, max_value=4))):
        template = draw(st.integers(0, base - 1))
        kinds.append(kinds[template])
        near = {a + b - template for a, b in links if template in (a, b) and max(a, b) < base}
        if draw(st.booleans()):
            near ^= {draw(st.integers(0, copy - 1))}
        links |= {(other, copy) for other in near}
    groups, n = [], 0
    for size, clique in kinds:
        groups.append((range(n, n + size), clique))
        n += size
    edges = [e for nodes, clique in groups if clique for e in itertools.combinations(nodes, 2)]
    edges += [(u, v) for a, b in links for u in groups[a][0] for v in groups[b][0]]
    g = Graph(n, edges)
    if draw(st.booleans()):
        g = relabel(g, draw(st.permutations(range(n))))
    return g


@st.composite
def relabelled_family_graphs(draw):
    """Core-satellite graphs of ``generalized_params``, nodes relabelled at random."""
    g = generalized_core_satellite(draw(generalized_params()))
    return relabel(g, draw(st.permutations(range(g.n))))


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

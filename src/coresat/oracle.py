"""Numeric oracles that read only the graph, never the parameters.

Everything here is deliberately independent of the closed forms: dense
matrices, a full symmetric eigendecomposition, twin-reduced spectra,
subgraph counts by listing every instance and local clustering from
neighbor sets.  ``twin_reduced_spectra`` solves only the quotient over
the classes of twin runs of ``graphs.twin_classes``, t + 1 cells for a
core-satellite graph of t satellite sizes; every other eigenvalue is an
exact contrast value.  It is what ``spectrum --method numeric|both``
runs, and the dense matrices stay as the brute-force check on it in
``verify`` and the tests.  The listing walks the rows instead of
scanning every node subset, but it is still brute force: it reads only
the graph's rows, each triangle, path and star it counts is one it
found, and no formula or identity of ``metrics`` stands in for a count.
Size guards keep the dense and brute-force paths at brute-force scale.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .exceptions import DEFAULT_DENSE_LIMIT, NumericFailureError, SizeLimitError
from .graphs import Graph, twin_classes

__all__ = [
    "DEFAULT_DENSE_LIMIT",
    "DEFAULT_ENUM_LIMIT",
    "SubgraphCounts",
    "check_dense_size",
    "adjacency_matrix",
    "laplacian_matrix",
    "eigenvalues_symmetric",
    "twin_reduced_spectra",
    "exhaustive_subgraph_counts",
    "local_clustering",
]

DEFAULT_ENUM_LIMIT = 50


def check_dense_size(n: int, max_n: int) -> None:
    """Refuse a dense n-by-n matrix when n exceeds ``max_n``."""
    if n > max_n:
        raise SizeLimitError(f"n={n} exceeds dense limit {max_n}")


def adjacency_matrix(g: Graph, max_n: int = DEFAULT_DENSE_LIMIT) -> np.ndarray:
    """Dense 0/1 adjacency matrix as float64."""
    check_dense_size(g.n, max_n)
    a = np.zeros((g.n, g.n))
    rows = np.repeat(np.arange(g.n), g.degrees())
    cols = np.fromiter(itertools.chain.from_iterable(g.adj), dtype=np.intp, count=2 * g.m)
    a[rows, cols] = 1.0
    return a


def laplacian_matrix(g: Graph, max_n: int = DEFAULT_DENSE_LIMIT) -> np.ndarray:
    """Dense combinatorial Laplacian D - A as float64."""
    a = adjacency_matrix(g, max_n)
    lap = -a
    lap[np.diag_indices(g.n)] = [float(k) for k in g.degrees()]
    return lap


def eigenvalues_symmetric(mat: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric real matrix, sorted descending.

    Raises NumericFailureError if the decomposition does not converge;
    a silent bad answer is never returned.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be exactly symmetric")
    try:
        values = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"eigendecomposition failed: {exc}") from exc
    return values[::-1]


def twin_reduced_spectra(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency and Laplacian spectra of ``g``, each all n values sorted descending.

    ``graphs.twin_classes`` splits the nodes into C classes of twin runs,
    an equitable partition read from the rows alone (Cvetkovic, Rowlinson
    & Simic, *An Introduction to the Theory of Graph Spectra*, 2010).  A
    vector on one run that sums to zero is an eigenvector: of A with
    eigenvalue -1 on a clique run and 0 on an independent one, and of
    L = D - A with d + 1 or d; each run gives z - 1 of them.  So is a
    vector constant on each run of a class that sums to zero over the
    class, with eigenvalue z - 1 on clique runs and 0 on independent
    ones for A, d minus that for L; each class gives count - 1 of them.
    All of these are exact.  The other C eigenvalues are those of the
    quotient, symmetrized to off-diagonal sqrt(links_ij * z_j * links_ji
    * z_i) (negated for L) and diagonal as above, solved by
    ``eigenvalues_symmetric``.  Guarded by ``DEFAULT_DENSE_LIMIT`` on C,
    not on n.
    """
    firsts, sizes, cliques, counts, links = twin_classes(g)
    cells = len(firsts)
    if cells > DEFAULT_DENSE_LIMIT:
        raise SizeLimitError(
            f"{cells} classes of twins exceed dense limit {DEFAULT_DENSE_LIMIT}"
        )
    z, count = np.array(sizes, dtype=np.intp), np.array(counts, dtype=np.intp)
    # a node of class i has links[i][j] * z_j neighbors in class j
    quotient = np.zeros((cells, cells))
    for row, near in zip(quotient, links):
        row[list(near)] = list(near.values())
    quotient *= z
    adjacency = np.sqrt(quotient * quotient.T)
    laplacian = -adjacency
    clique = np.array(cliques, dtype=bool)
    degree = np.array([len(g.adj[u]) for u in firsts], dtype=float)
    own = np.where(clique, z - 1, 0.0)
    adjacency[np.diag_indices(cells)] = own
    laplacian[np.diag_indices(cells)] = degree - own
    # z - 1 contrasts inside each run, count - 1 across the runs of a class
    inside = np.repeat(np.arange(cells), count * (z - 1))
    across = np.repeat(np.arange(cells), count - 1)
    spectra = (
        (adjacency, np.where(clique, -1.0, 0.0)[inside], own[across]),
        (laplacian, degree[inside] + clique[inside], degree[across] - own[across]),
    )
    return tuple(
        np.sort(np.concatenate((eigenvalues_symmetric(quotient), *exact)))[::-1]
        for quotient, *exact in spectra
    )


@dataclass(frozen=True)
class SubgraphCounts:
    triangles: int
    p2: int
    p3: int
    s13: int


def exhaustive_subgraph_counts(g: Graph, max_n: int = DEFAULT_ENUM_LIMIT) -> SubgraphCounts:
    """Count triangles, 2-paths, 3-paths, and 3-stars by listing each one.

    Every count is a tally of the instances listed from the sorted rows,
    never a counting identity: a triangle as a < b < c, a 2-path or a
    3-star as a pair or triple of one node's neighbors, and a 3-path as
    a walk a-b-c-d on four distinct nodes, found once from each end.
    Guarded by ``max_n``.
    """
    if g.n > max_n:
        raise SizeLimitError(f"n={g.n} exceeds enumeration limit {max_n}")
    nbrs = tuple(map(frozenset, g.adj))
    triangles = sum(
        c in nbrs[b]
        for a, row in enumerate(g.adj)
        for b, c in itertools.combinations([v for v in row if v > a], 2)
    )
    p2 = sum(1 for row in g.adj for _ in itertools.combinations(row, 2))
    walks = sum(
        1
        for b, row in enumerate(g.adj)
        for a in row
        for c in row
        if c != a
        for d in g.adj[c]
        if d != a and d != b
    )
    s13 = sum(1 for row in g.adj for _ in itertools.combinations(row, 3))
    return SubgraphCounts(triangles=triangles, p2=p2, p3=walks // 2, s13=s13)


def local_clustering(g: Graph, u: int) -> float:
    """Fraction of the pairs of neighbors of ``u`` that are adjacent; 0 at degree <= 1."""
    k = g.degree(u)
    if k <= 1:
        return 0.0
    nbrs = set(g.adj[u])
    links = sum(len(nbrs.intersection(g.adj[v])) for v in g.adj[u]) // 2
    return 2.0 * links / (k * (k - 1))

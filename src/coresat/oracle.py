"""Numeric oracles that read only the graph, never the parameters.

Everything here is deliberately independent of the closed forms: dense
matrices, a full symmetric eigendecomposition, twin-reduced spectra,
subgraph counts by listing every instance and local clustering from
neighbor sets.  ``twin_reduced_spectra`` finds the graph's runs of twins
from its rows (``graphs.twin_runs``) and solves only the small quotient
over them; every other eigenvalue is an exact contrast value.  It is
what ``spectrum --method numeric|both`` runs, and the dense matrices
stay as the brute-force check on it in ``verify`` and the tests.  The
listing walks the rows instead of scanning every node subset, but it is
still brute force: it reads only the graph's rows, each triangle, path
and star it counts is one it found, and no formula or identity of
``metrics`` stands in for a count.  Size guards keep the dense and
brute-force paths at brute-force scale.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericFailureError, SizeLimitError
from .graphs import Graph, run_neighbors, twin_runs

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

DEFAULT_DENSE_LIMIT = 2000
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


def twin_reduced_spectra(
    g: Graph, max_n: int = DEFAULT_DENSE_LIMIT
) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency and Laplacian spectra of ``g``, each all n values sorted descending.

    ``twin_runs`` splits the nodes into R runs of twins, read from the
    rows alone; they are an equitable partition, and a node of run i
    has z_j neighbors in each run j next to it (Cvetkovic, Rowlinson &
    Simic, *An Introduction to the Theory of Graph Spectra*, 2010, on
    duplicate and coduplicate vertices).  A vector on run i that sums to
    zero is an eigenvector: of A with eigenvalue -1 on a clique run and 0
    on an independent one, and of L = D - A with d + 1 or d.  Each run
    gives z - 1 of them, exactly.  The other R eigenvalues are those of
    the quotient, symmetrized to off-diagonal sqrt(z_i * z_j) between
    adjacent runs (negated for L) and diagonal z - 1 on a clique run, 0
    on an independent one (d minus that for L), solved by
    ``eigenvalues_symmetric``.  The runs next to each run are read from
    ``graphs.run_neighbors``.  Guarded by ``max_n`` on R, not on n.
    """
    firsts, sizes, cliques = twin_runs(g)
    runs = len(firsts)
    if runs > max_n:
        raise SizeLimitError(f"{runs} runs of twins exceed dense limit {max_n}")
    near = run_neighbors(g, firsts)
    index = dict(zip(firsts, range(runs)))
    z = np.array(sizes, dtype=np.intp)
    # run i is next to run j for each of j's first nodes in near[i]
    i = np.repeat(np.arange(runs), list(map(len, near)))
    j = np.fromiter(
        map(index.__getitem__, itertools.chain.from_iterable(near)), dtype=np.intp, count=len(i)
    )
    adjacency = np.zeros((runs, runs))
    adjacency[i, j] = np.sqrt(z[i] * z[j])
    laplacian = -adjacency
    clique = np.array(cliques, dtype=bool)
    degree = np.array([len(g.adj[u]) for u in firsts], dtype=float)
    own = np.where(clique, z - 1, 0.0)
    adjacency[np.diag_indices(runs)] = own
    laplacian[np.diag_indices(runs)] = degree - own
    # each run's z - 1 contrast eigenvalues
    contrast = np.repeat(np.arange(runs), z - 1)
    spectra = (
        (adjacency, np.where(clique[contrast], -1.0, 0.0)),
        (laplacian, degree[contrast] + clique[contrast]),
    )
    return tuple(
        np.sort(np.concatenate((eigenvalues_symmetric(quotient), structural)))[::-1]
        for quotient, structural in spectra
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

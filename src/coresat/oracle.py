"""Numeric oracles that read only the graph, never the parameters.

Everything here is deliberately independent of the closed forms: dense
matrices, a full symmetric eigendecomposition, twin-reduced spectra,
subgraph counts by listing every instance and local clustering from
neighbor sets.  ``twin_reduced_spectra``, run by ``spectrum --method
numeric|both``, solves only the integer divisor matrix B of
``graphs.twin_classes``, the one entry point to the twin classes, t + 1
cells for a core-satellite graph of t satellite sizes; every other
eigenvalue is an exact contrast value.  Its ``symmetric_quotient``
serves the closed forms too, on their B, so the dense matrices of
``verify`` and the tests check it.  The listing walks the rows instead
of scanning every node subset, but it is still brute force: it reads
only the graph's rows, each triangle, path and star it counts is one it
found, and no formula or identity of ``metrics`` stands in for a count.
Two constants keep the dense and brute-force paths at brute-force
scale: ``DEFAULT_DENSE_LIMIT`` nodes of a dense matrix or cells of a
quotient, and ``DEFAULT_ENUM_LIMIT`` nodes of a listed graph.
numpy is imported inside the functions that use it, so that importing
the package does not load it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .exceptions import NumericFailureError, SizeLimitError
from .graphs import Graph, twin_classes

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DEFAULT_DENSE_LIMIT",
    "DEFAULT_ENUM_LIMIT",
    "SubgraphCounts",
    "adjacency_matrix",
    "laplacian_matrix",
    "eigenvalues_symmetric",
    "symmetric_quotient",
    "twin_reduced_spectra",
    "exhaustive_subgraph_counts",
    "local_clustering",
]

# largest side of a dense matrix, or of a quotient, handed to the eigensolver
DEFAULT_DENSE_LIMIT = 2000
DEFAULT_ENUM_LIMIT = 50


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix as float64; refused past ``DEFAULT_DENSE_LIMIT`` nodes."""
    import numpy as np

    if g.n > DEFAULT_DENSE_LIMIT:
        raise SizeLimitError(f"n={g.n} exceeds dense limit {DEFAULT_DENSE_LIMIT}")
    a = np.zeros((g.n, g.n))
    rows = np.repeat(np.arange(g.n), g.degrees())
    cols = np.fromiter(itertools.chain.from_iterable(g.adj), dtype=np.intp, count=2 * g.m)
    a[rows, cols] = 1.0
    return a


def laplacian_matrix(g: Graph) -> np.ndarray:
    """Dense combinatorial Laplacian D - A as float64, guarded as ``adjacency_matrix``."""
    lap = -adjacency_matrix(g)
    lap.flat[:: g.n + 1] = g.degrees()
    return lap


def eigenvalues_symmetric(mat: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric real matrix, sorted descending.

    A stack of same-size matrices, shape (k, n, n) or a list of k
    matrices, is solved in one call and gives one row of values per
    matrix, each bit for bit what the matrix alone gives.  Raises
    NumericFailureError if the decomposition does not converge; a
    silent bad answer is never returned.
    """
    import numpy as np

    a = np.asarray(mat, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(a, a.swapaxes(-2, -1)):
        raise ValueError("matrix must be exactly symmetric")
    try:
        values = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"eigendecomposition failed: {exc}") from exc
    return values[..., ::-1]


def symmetric_quotient(quotient: list[dict[int, int]]) -> np.ndarray:
    """B_ii on the diagonal, sqrt(B_ij * B_ji) off it: B symmetrized, same eigenvalues.

    B is a divisor matrix in integer rows, from ``graphs.twin_classes`` or
    ``spectra.quotient``, and this is B conjugated by diag(sqrt(|C_i|)).
    Each product is taken in exact ints and rounded once; past the float
    range, ``OverflowError``.  Guarded by ``DEFAULT_DENSE_LIMIT`` on cells.
    """
    cells = len(quotient)
    if cells > DEFAULT_DENSE_LIMIT:
        raise SizeLimitError(
            f"a quotient of {cells} cells exceeds the dense limit {DEFAULT_DENSE_LIMIT}"
        )
    import numpy as np

    b = np.zeros((cells, cells))
    for i, row in enumerate(quotient):
        for j, links in row.items():
            b[i, j] = links if i == j else math.sqrt(links * quotient[j].get(i, 0))
    return b


def twin_reduced_spectra(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency and Laplacian spectra of ``g``, each all n values sorted descending.

    ``graphs.twin_classes`` splits the nodes into C classes of twin runs,
    an equitable partition read from the rows alone (Cvetkovic, Rowlinson
    & Simic, *An Introduction to the Theory of Graph Spectra*, 2010), and
    gives its divisor matrix B: B_ij neighbors in class j for each node
    of class i, and B_ii > 0 exactly on a clique run.  A vector on one
    run that sums to zero is an eigenvector: of A with eigenvalue -1 on
    a clique run and 0 on an independent one, and of L = D - A with
    d + 1 or d; each run gives z - 1 of them.  So is a vector constant
    on each run of a class that sums to zero over the class, with
    eigenvalue B_ii for A and d - B_ii for L, where d is B's row sum;
    each class gives count - 1 of them.  All of these are exact.  The
    other C eigenvalues are those of ``symmetric_quotient(B)``, for L with
    diagonal d - B_ii and the rest negated, solved by ``eigenvalues_symmetric``.
    """
    import numpy as np

    _, sizes, counts, quotient = twin_classes(g)
    adjacency = symmetric_quotient(quotient)
    z, count = np.array(sizes, dtype=np.intp), np.array(counts, dtype=np.intp)
    degree = np.array([sum(row.values()) for row in quotient], dtype=float)
    own = adjacency.diagonal()
    clique = own > 0
    laplacian = -adjacency
    np.fill_diagonal(laplacian, degree - own)
    # z - 1 contrasts inside each run, count - 1 across the runs of a class
    inside = np.repeat(np.arange(len(z)), count * (z - 1))
    across = np.repeat(np.arange(len(z)), count - 1)
    spectra = (
        (adjacency, np.where(clique, -1.0, 0.0)[inside], own[across]),
        (laplacian, degree[inside] + clique[inside], degree[across] - own[across]),
    )
    return tuple(
        np.sort(np.concatenate((eigenvalues_symmetric(matrix), *exact)))[::-1]
        for matrix, *exact in spectra
    )


@dataclass(frozen=True)
class SubgraphCounts:
    triangles: int
    p2: int
    p3: int
    s13: int


def exhaustive_subgraph_counts(g: Graph) -> SubgraphCounts:
    """Count triangles, 2-paths, 3-paths, and 3-stars by listing each one.

    Every count is a tally of the instances listed from the sorted rows,
    never a counting identity: a triangle as a < b < c, a 2-path or a
    3-star as a pair or triple of one node's neighbors, and a 3-path
    a-b-c-d on four distinct nodes once, from the lower end b < c of its
    middle edge.  Refused past ``DEFAULT_ENUM_LIMIT`` nodes.
    """
    if g.n > DEFAULT_ENUM_LIMIT:
        raise SizeLimitError(f"n={g.n} exceeds enumeration limit {DEFAULT_ENUM_LIMIT}")
    nbrs = tuple(map(frozenset, g.adj))
    triangles = sum(
        c in nbrs[b]
        for a, row in enumerate(g.adj)
        for b, c in itertools.combinations([v for v in row if v > a], 2)
    )
    p2 = sum(1 for row in g.adj for _ in itertools.combinations(row, 2))
    p3 = sum(
        1
        for b, row in enumerate(g.adj)
        for c in row
        if c > b
        for a in row
        if a != c
        for d in g.adj[c]
        if d != a and d != b
    )
    s13 = sum(1 for row in g.adj for _ in itertools.combinations(row, 3))
    return SubgraphCounts(triangles=triangles, p2=p2, p3=p3, s13=s13)


def local_clustering(g: Graph, u: int) -> float:
    """Fraction of the pairs of neighbors of ``u`` that are adjacent; 0 at degree <= 1."""
    k = g.degree(u)
    if k <= 1:
        return 0.0
    nbrs = set(g.adj[u])
    links = sum(len(nbrs.intersection(g.adj[v])) for v in g.adj[u]) // 2
    return 2.0 * links / (k * (k - 1))

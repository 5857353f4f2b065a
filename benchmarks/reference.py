"""Exact reference values for generalized core-satellite graphs.

Everything here is computed apart from the coresat package, in Python
integers and ``Fraction``s, from the core size c and the satellite
classes [(s_i, eta_i), ...].  The benchmark's checks compare the
program's outputs with these values; ``tests/test_bench_reference.py``
compares these values with brute-force counts on small graphs.

Every node has one of two kinds of neighbourhood.  A core node is
adjacent to all n-1 other nodes; a node of class i is adjacent to the
c core nodes and the s_i-1 other nodes of its clique.  Every edge is
core-core, core-class i, or inside a clique of class i, so each count
below is a sum over those edge and node classes.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb


@dataclass(frozen=True)
class Family:
    """A generalized core-satellite graph given by its parameters.

    ``classes`` holds (size, count) pairs merged by size and sorted by
    ascending size.
    """

    core: int
    classes: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, core: int, classes) -> "Family":
        merged: dict[int, int] = {}
        for size, count in classes:
            if size < 1 or count < 1:
                raise ValueError(f"class ({size}, {count}) needs size, count >= 1")
            merged[size] = merged.get(size, 0) + count
        if core < 1 or not merged:
            raise ValueError("need core >= 1 and at least one class")
        return cls(core, tuple(sorted(merged.items())))

    @property
    def satellite_nodes(self) -> int:
        """S = sum of eta_i * s_i."""
        return sum(s * eta for s, eta in self.classes)

    @property
    def satellite_square_sum(self) -> int:
        """Q = sum of eta_i * s_i**2."""
        return sum(s * s * eta for s, eta in self.classes)

    @property
    def n(self) -> int:
        return self.core + self.satellite_nodes

    @property
    def max_size(self) -> int:
        return self.classes[-1][0]

    def node_classes(self) -> list[tuple[int, int]]:
        """(degree, number of nodes) per node class, core first."""
        c = self.core
        out = [(self.n - 1, c)]
        out.extend((c + s - 1, s * eta) for s, eta in self.classes)
        return out

    def edge_classes(self) -> list[tuple[int, int, int]]:
        """(degree of one end, degree of the other end, number of edges)."""
        c, n = self.core, self.n
        out = [(n - 1, n - 1, comb(c, 2))]
        for s, eta in self.classes:
            k = c + s - 1
            out.append((n - 1, k, c * s * eta))
            out.append((k, k, eta * comb(s, 2)))
        return [e for e in out if e[2]]

    def degree_counts(self) -> Counter:
        """Degree multiset as {degree: number of nodes}."""
        counts: Counter = Counter()
        for k, nodes in self.node_classes():
            counts[k] += nodes
        return counts

    @property
    def m(self) -> int:
        return sum(count for _, _, count in self.edge_classes())

    @property
    def triangles(self) -> int:
        """C(c,3) + sum eta_i [C(s_i,3) + c C(s_i,2) + C(c,2) s_i]."""
        c = self.core
        return comb(c, 3) + sum(
            eta * (comb(s, 3) + c * comb(s, 2) + comb(c, 2) * s)
            for s, eta in self.classes
        )

    def counts(self) -> dict[str, int]:
        """n, m, triangles, p2 (2-paths), p3 (3-paths), s13 (3-stars)."""
        t = self.triangles
        p2 = sum(nodes * comb(k, 2) for k, nodes in self.node_classes())
        s13 = sum(nodes * comb(k, 3) for k, nodes in self.node_classes())
        p3 = sum(e * (a - 1) * (b - 1) for a, b, e in self.edge_classes()) - 3 * t
        return {"n": self.n, "m": self.m, "triangles": t, "p2": p2, "p3": p3, "s13": s13}

    def avg_clustering(self) -> Fraction:
        """Mean local clustering; nodes of degree <= 1 count 0.

        With every node at degree >= 2 this is
        1 - c (S^2 - Q) / (n (n-1) (n-2)): satellite nodes have
        clustering 1, and a core node misses exactly the (S^2 - Q)/2
        pairs of satellite nodes in different cliques.
        """
        c, n = self.core, self.n
        S, Q = self.satellite_nodes, self.satellite_square_sum
        total = Fraction(0)
        if n - 1 >= 2:
            total += c * (1 - Fraction(S * S - Q, (n - 1) * (n - 2)))
        total += sum(s * eta for s, eta in self.classes if c + s - 1 >= 2)
        return total / n

    def transitivity(self) -> Fraction:
        """3 t / p2, or 0 without 2-paths."""
        p2 = self.counts()["p2"]
        return Fraction(3 * self.triangles, p2) if p2 else Fraction(0)

    def assortativity(self) -> Fraction | None:
        """Pearson degree correlation over edges; None when undefined."""
        m = self.m
        se = ss = sq = 0
        for a, b, e in self.edge_classes():
            se += e * a * b
            ss += e * (a + b)
            sq += e * (a * a + b * b)
        den = 2 * m * sq - ss * ss
        if m == 0 or den == 0:
            return None
        return Fraction(4 * m * se - ss * ss, den)

    def adjacency_power_sums(self) -> tuple[int, int, int]:
        """Exact sum of lambda, lambda^2, lambda^3 over the adjacency spectrum.

        trace(A) = 0, trace(A^2) = 2m, trace(A^3) = 6t.
        """
        return 0, 2 * self.m, 6 * self.triangles

    def laplacian_power_sums(self) -> tuple[int, int]:
        """Exact sum of lambda and lambda^2 over the Laplacian spectrum.

        trace(L) = sum d = 2m and trace(L^2) = sum d^2 + 2m.
        """
        squares = sum(nodes * k * k for k, nodes in self.node_classes())
        return 2 * self.m, squares + 2 * self.m


def power_sum_tolerance(k: int, rho: float, terms: int) -> float:
    """Allowed error of a floating sum of ``terms`` eigenvalues to power k.

    Each eigenvalue carries a relative error well under 1e-11 (12
    printed significant digits, or a few ulps from a solver), so its
    k-th power is off by at most k * 1e-11 * rho^k.
    """
    return 1e-11 * k * max(terms, 1) * max(abs(rho), 1.0) ** k


def exact_power_sums(pairs, powers=(1, 2, 3)) -> list[Fraction]:
    """Sums of multiplicity * value^k over (value, multiplicity) pairs, exactly."""
    out = []
    for k in powers:
        out.append(sum((Fraction(v) ** k * mult for v, mult in pairs), Fraction(0)))
    return out


def close(value: float | None, exact: Fraction | None, tol: float = 1e-12) -> bool:
    """Both undefined, or both defined and within ``tol`` of each other."""
    if value is None or exact is None:
        return value is None and exact is None
    return abs(Fraction(value) - exact) <= tol

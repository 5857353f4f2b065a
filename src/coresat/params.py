"""Parameter records for core-satellite graph families.

A generalized core-satellite graph joins a core clique on ``core`` nodes
to disjoint satellite cliques, grouped into classes of equal clique
size.  ``GeneralizedParams`` is the one parameter type every generator,
closed form and spectrum takes.  The paper's single-class graph (c, s,
eta) is ``GeneralizedParams(c, [(s, eta)])``: ``c`` core nodes joined to
``eta`` copies of a clique on ``s`` nodes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import InvalidParameterError

__all__ = [
    "SatelliteClass",
    "GeneralizedParams",
]


@dataclass(frozen=True)
class SatelliteClass:
    """One satellite class: ``count`` disjoint cliques of ``size`` nodes."""

    size: int
    count: int

    def __post_init__(self) -> None:
        for name, value in (("size", self.size), ("count", self.count)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidParameterError(f"{name} must be an int, got {value!r}")
            if value < 1:
                raise InvalidParameterError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class GeneralizedParams:
    """Parameters of a generalized core-satellite graph.

    ``classes`` is canonicalized on construction: classes sharing a clique
    size are merged by summing their counts, and the result is stored
    sorted by ascending size.  All downstream node ordering and spectrum
    assembly rely on this canonical form.

    The derived totals are computed once, at construction, and kept as
    plain attributes outside the fields, so they take no part in
    ``==``, ``hash`` or ``repr``: ``n`` nodes, ``m`` edges (core clique
    edges plus, per class, clique and core-link edges),
    ``satellite_total`` cliques and ``satellite_nodes`` nodes in the
    satellites.
    """

    core: int
    classes: tuple[SatelliteClass, ...]

    def __init__(self, core: int, classes) -> None:
        if not isinstance(core, int) or isinstance(core, bool):
            raise InvalidParameterError(f"core must be an int, got {core!r}")
        if core < 1:
            raise InvalidParameterError(f"core must be >= 1, got {core}")
        merged: dict[int, SatelliteClass] = {}
        try:  # ``classes``, or one of its entries, may not be iterable
            pairs = [(e.size, e.count) if isinstance(e, SatelliteClass) else tuple(e) for e in classes]
        except TypeError:
            pairs = None
        if pairs is None or any(len(pair) != 2 for pair in pairs):
            raise InvalidParameterError(f"a satellite class is a (size, count) pair, got {classes!r}")
        for size, count in pairs:
            cls = SatelliteClass(size, count)  # validates
            if size in merged:
                cls = SatelliteClass(size, merged[size].count + count)
            merged[size] = cls
        if not merged:
            raise InvalidParameterError("at least one satellite class is required")
        canonical = tuple(merged[size] for size in sorted(merged))
        total = nodes = 0
        edges = math.comb(core, 2)
        for cls in canonical:
            total += cls.count
            nodes += cls.count * cls.size
            edges += cls.count * (math.comb(cls.size, 2) + core * cls.size)
        # frozen: the fields and the derived totals are set past __setattr__
        self.__dict__.update(
            core=core,
            classes=canonical,
            satellite_total=total,
            satellite_nodes=nodes,
            n=core + nodes,
            m=edges,
        )

    @property
    def class_count(self) -> int:
        return len(self.classes)

    # benchmark hook: benchmarks/workloads.py (the analytic workload)
    # calls it on one-class parameters
    def to_core_satellite(self) -> GeneralizedParams:
        """These parameters, checked to have exactly one class."""
        if len(self.classes) != 1:
            raise InvalidParameterError("only single-class parameters convert")
        return self

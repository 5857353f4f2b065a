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
        for name in ("size", "count"):
            value = getattr(self, name)
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
    """

    core: int
    classes: tuple[SatelliteClass, ...]

    def __init__(self, core: int, classes) -> None:
        if not isinstance(core, int) or isinstance(core, bool):
            raise InvalidParameterError(f"core must be an int, got {core!r}")
        if core < 1:
            raise InvalidParameterError(f"core must be >= 1, got {core}")
        merged: dict[int, int] = {}
        for entry in classes:
            if isinstance(entry, SatelliteClass):
                size, count = entry.size, entry.count
            else:
                size, count = entry
            cls = SatelliteClass(size, count)  # validates
            merged[cls.size] = merged.get(cls.size, 0) + cls.count
        if not merged:
            raise InvalidParameterError("at least one satellite class is required")
        canonical = tuple(
            SatelliteClass(size, merged[size]) for size in sorted(merged)
        )
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "classes", canonical)

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def satellite_total(self) -> int:
        """Total number of satellite cliques across all classes."""
        return sum(cls.count for cls in self.classes)

    @property
    def satellite_nodes(self) -> int:
        return sum(cls.size * cls.count for cls in self.classes)

    @property
    def n(self) -> int:
        return self.core + self.satellite_nodes

    @property
    def m(self) -> int:
        """Core clique edges plus, per class, clique and core-link edges."""
        edges = math.comb(self.core, 2)
        for cls in self.classes:
            edges += cls.count * (math.comb(cls.size, 2) + self.core * cls.size)
        return edges

    # benchmark hook: benchmarks/workloads.py (the analytic workload)
    # calls it on one-class parameters
    def to_core_satellite(self) -> GeneralizedParams:
        """These parameters, checked to have exactly one class."""
        if len(self.classes) != 1:
            raise InvalidParameterError("only single-class parameters convert")
        return self

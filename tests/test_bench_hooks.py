"""The names the benchmark's tracer wraps still exist, and the public API resolves.

``benchmarks/tracing.py`` looks each hook up with ``getattr`` on a
coresat module, so deleting or renaming one of those names breaks
``benchmarks/run.py --trace 1`` without failing any other test.  The
hooks stay out of every ``__all__``: they are not part of the API.
"""
from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import coresat
from coresat import (
    GeneralizedParams,
    analytic_metrics,
    compute_metrics,
    generalized_core_satellite,
    graphs,
    metrics,
    spectra,
)
from coresat.graphs import core_satellite

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("coresat_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    points = [point[:2] for point in tracing.SPAN_POINTS + tracing.COUNT_POINTS]
    assert points
    missing = [
        f"{module}.{attr}"
        for module, attr in points
        if not callable(getattr(importlib.import_module(f"coresat.{module}"), attr, None))
    ]
    assert missing == []


def test_single_class_hook_of_the_analytic_workload_runs():
    params = GeneralizedParams(3, [(2, 2)]).to_core_satellite()
    closed, direct = analytic_metrics(params), compute_metrics(core_satellite(params))
    assert (closed.triangles, closed.p3) == (direct.triangles, direct.p3)


def test_hooks_stay_aliases_of_the_one_code_path():
    assert graphs.core_satellite is graphs.generalized_core_satellite
    assert spectra.adjacency_spectrum_cs is spectra.adjacency_spectrum_gcs
    params = GeneralizedParams(3, [(2, 2)])
    assert params.to_core_satellite() is params


METRIC_HOOKS = ("triangle_count", "assortativity", "assortativity_estrada")


def test_metric_hooks_return_their_report_fields():
    for p in (GeneralizedParams(1, [(2, 2)]), GeneralizedParams(2, [(1, 3), (3, 2)])):
        g = generalized_core_satellite(p)
        rep = compute_metrics(g)
        assert metrics.triangle_count(g) == rep.triangles
        assert metrics.assortativity(g) == rep.assortativity
        assert metrics.assortativity_estrada(g) == rep.assortativity_estrada
    k5 = generalized_core_satellite(GeneralizedParams(2, [(3, 1)]))
    assert metrics.assortativity(k5) is None and metrics.assortativity_estrada(k5) is None


def test_no_hook_is_public():
    hooks = {*METRIC_HOOKS, "core_satellite", "adjacency_spectrum_cs"}
    assert hooks.isdisjoint(coresat.__all__)
    assert not any(hasattr(coresat, name) for name in METRIC_HOOKS)
    for module in (graphs, metrics, spectra):
        assert hooks.isdisjoint(module.__all__), module.__name__


def test_every_name_in_every_all_resolves():
    modules = [coresat] + [
        importlib.import_module(f"coresat.{info.name}")
        for info in pkgutil.iter_modules(coresat.__path__)
    ]
    assert len(modules) >= 10
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []

"""The names the benchmark's tracer wraps still exist.

``benchmarks/tracing.py`` looks each hook up with ``getattr`` on a
coresat module, so deleting or renaming one of those names breaks
``benchmarks/run.py --trace 1`` without failing any other test.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from coresat import GeneralizedParams, analytic_metrics, compute_metrics, graphs, spectra
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

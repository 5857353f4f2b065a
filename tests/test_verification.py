from __future__ import annotations

import dataclasses
from collections import Counter

from coresat import run_checks, sample_generalized_params, verification
from coresat.verification import GRID

EXPECTED_ORDER = [
    "counts-closed-forms",
    "clustering-closed-forms",
    "assortativity",
    "subgraph-enumeration",
    "adjacency-spectra",
    "generalized-spectra",
    "laplacian-spectra",
    "bounds-eigenvector",
    "spectral-indices",
    "divergence",
]


def test_grid_shape():
    assert len(GRID) == 125
    assert all(p.classes[0].count >= 2 for p in GRID)


def test_sampled_params_are_deterministic_and_canonical():
    a = sample_generalized_params()
    b = sample_generalized_params()
    assert a == b
    assert len(a) == 20
    for p in a:
        assert p.n <= 200
        sizes = [cls.size for cls in p.classes]
        assert sizes == sorted(sizes)
        assert len(set(sizes)) == len(sizes)
    assert sample_generalized_params(count=5, seed=7) != sample_generalized_params(
        count=5, seed=8
    )


def test_full_battery_passes():
    results = run_checks()
    assert [r.name for r in results] == EXPECTED_ORDER
    failures = [r for r in results if not r.passed]
    assert failures == [], [f"{r.name}: {r.detail}" for r in failures]


def test_injected_fault_is_caught():
    results = run_checks(triangle_sign_fault=True)
    # the fault only touches the closed-form triangle count; independent
    # checks still pass
    assert [r.name for r in results if not r.passed] == ["clustering-closed-forms"]


def test_nan_tolerance_fails_the_spectrum_checks():
    by_name = {r.name: r for r in run_checks(tol=float("nan"))}
    for name in ("adjacency-spectra", "generalized-spectra", "laplacian-spectra"):
        assert not by_name[name].passed, name


def test_closed_form_checks_cover_the_sampled_multiclass_graphs(monkeypatch):
    real = verification.metrics.analytic_metrics

    def off_on_multiclass(params, **kwargs):
        rep = real(params, **kwargs)
        if params.class_count == 1:
            return rep
        return dataclasses.replace(
            rep, m=rep.m + 1, triangles=rep.triangles + 1, assortativity=rep.assortativity + 1e-9
        )

    monkeypatch.setattr(verification.metrics, "analytic_metrics", off_on_multiclass)
    by_name = {r.name: r for r in run_checks()}
    first = sample_generalized_params()[0]
    for name in ("counts-closed-forms", "clustering-closed-forms", "assortativity"):
        assert not by_name[name].passed, name
        assert by_name[name].detail.startswith(f"{first}:"), name


def test_tight_tolerance_still_passes():
    results = run_checks(tol=1e-10, max_enum_n=10)
    assert all(r.passed for r in results)


def test_each_case_is_built_and_measured_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in (
        (verification, "core_satellite"),
        (verification, "generalized_core_satellite"),
        (verification.metrics, "compute_metrics"),
        (verification.metrics, "analytic_metrics"),
    ):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    assert all(r.passed for r in run_checks())
    sampled = len(sample_generalized_params())
    assert calls == Counter(
        core_satellite=len(GRID),
        generalized_core_satellite=sampled,
        compute_metrics=len(GRID) + sampled,
        # one per case, and the divergence series: eta = 1000, then 2..1000
        analytic_metrics=len(GRID) + sampled + 1000,
    )

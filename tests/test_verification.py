from __future__ import annotations

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
    assert all(p.satellite_count >= 2 for p in GRID)


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
    by_name = {r.name: r for r in results}
    assert not by_name["clustering-closed-forms"].passed
    # the fault only touches the closed-form triangle count; independent
    # checks still pass
    assert by_name["adjacency-spectra"].passed
    assert by_name["subgraph-enumeration"].passed


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
    ):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    assert all(r.passed for r in run_checks())
    sampled = len(sample_generalized_params())
    assert calls == Counter(
        core_satellite=len(GRID),
        generalized_core_satellite=sampled,
        compute_metrics=len(GRID) + sampled,
    )
